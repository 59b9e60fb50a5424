// Command l2qgen generates a synthetic web corpus and prints summary
// statistics, sample pages, or a JSON dump of the whole corpus for
// inspection. The dump is not an input of any tool: the file l2qserve,
// l2qharvest and l2qsearch load a corpus from is `l2qstore build`'s.
//
// Usage:
//
//	l2qgen -domain researchers -entities 996 -pages 50 -o corpus.json
//	l2qgen -domain cars -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"l2q/internal/corpus"
	"l2q/internal/synth"
)

func main() {
	var (
		domain   = flag.String("domain", "researchers", "researchers or cars")
		entities = flag.Int("entities", 0, "number of entities (0 = paper scale)")
		pages    = flag.Int("pages", 0, "pages per entity (0 = paper's 50)")
		seed     = flag.Uint64("seed", 2016, "generation seed")
		out      = flag.String("o", "", "write the corpus as indented JSON to this .json file, for inspection (a servable store file is `l2qstore build`)")
		stats    = flag.Bool("stats", true, "print corpus statistics")
		sample   = flag.Int("sample", 0, "print N sample pages")
	)
	flag.Parse()
	if *out != "" && !strings.HasSuffix(*out, ".json") {
		fmt.Fprintf(os.Stderr, "l2qgen: -o %s: only a .json inspection dump can be written; build a servable store file with `l2qstore build`\n", *out)
		os.Exit(2)
	}

	cfg := synth.DefaultConfig(corpus.Domain(*domain))
	if *entities > 0 {
		cfg.NumEntities = *entities
	}
	if *pages > 0 {
		cfg.PagesPerEntity = *pages
	}
	cfg.Seed = *seed

	g, err := synth.Generate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "l2qgen: %v\n", err)
		os.Exit(1)
	}

	if *stats {
		s := g.Corpus.ComputeStats()
		fmt.Printf("domain:      %s\n", s.Domain)
		fmt.Printf("entities:    %d\n", s.Entities)
		fmt.Printf("pages:       %d\n", s.Pages)
		fmt.Printf("paragraphs:  %d\n", s.Paragraphs)
		fmt.Printf("tokens:      %d\n", s.Tokens)
		fmt.Printf("kb words:    %d across %d types\n", g.KB.Len(), len(g.KB.Types()))
		fmt.Println("paragraphs per aspect:")
		aspects := make([]corpus.Aspect, 0, len(s.ParasByAspect))
		for a := range s.ParasByAspect {
			aspects = append(aspects, a)
		}
		sort.Slice(aspects, func(i, j int) bool {
			return s.ParasByAspect[aspects[i]] > s.ParasByAspect[aspects[j]]
		})
		for _, a := range aspects {
			fmt.Printf("  %-14s %8d\n", a, s.ParasByAspect[a])
		}
	}

	for i := 0; i < *sample && i < g.Corpus.NumPages(); i++ {
		p := g.Corpus.Pages[i]
		fmt.Printf("\n--- page %d: %s (%s)\n", p.ID, p.Title, p.URL)
		for _, para := range p.Paras {
			label := string(para.Aspect)
			if label == "" {
				label = "-"
			}
			fmt.Printf("  [%-12s] %s\n", label, para.Text)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "l2qgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := g.Corpus.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "l2qgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
}
