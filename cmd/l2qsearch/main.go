// Command l2qsearch is an interactive console over the synthetic corpus's
// retrieval engine — useful for poking at what the harvester sees. Each
// input line is a query; the top-k pages are printed with scores.
//
// Usage:
//
//	l2qsearch -domain researchers -entities 100
//	> marc snir uiuc
//	> parallel computing
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
)

func main() {
	var (
		domain   = flag.String("domain", "researchers", "researchers or cars")
		entities = flag.Int("entities", 100, "corpus entities")
		pages    = flag.Int("pages", 30, "pages per entity")
		seed     = flag.Uint64("seed", 1, "corpus seed")
		topK     = flag.Int("k", 5, "results per query")
	)
	flag.Parse()

	cfg := synth.DefaultConfig(corpus.Domain(*domain))
	cfg.NumEntities = *entities
	cfg.PagesPerEntity = *pages
	cfg.Seed = *seed
	g, err := synth.Generate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "l2qsearch: %v\n", err)
		os.Exit(1)
	}
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages)).WithTopK(*topK)
	fmt.Printf("%d pages indexed (μ = %.0f); enter queries, ctrl-d to exit\n",
		g.Corpus.NumPages(), engine.Mu())

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		q := g.Tokenizer.Tokenize(sc.Text())
		if len(q) == 0 {
			fmt.Print("> ")
			continue
		}
		res := engine.SearchWithSeed(nil, q)
		if len(res) == 0 {
			fmt.Println("no results")
		}
		for i, r := range res {
			e := g.Corpus.Entity(r.Page.Entity)
			fmt.Printf("%2d. %-44s %-18s score %.3f\n", i+1, r.Page.Title, e.Name, r.Score)
		}
		fmt.Print("> ")
	}
}
