// Business analytics (the paper's first motivating application, §I):
// harvest pages about one aspect of every product in a fleet — here the
// SAFETY aspect of car models — and drill into the harvested paragraphs to
// build an analyst's digest: coverage per model, the vocabulary customers
// see, and which models' safety stories look thin.
//
// The harvest runs with the pipelined scheduler (selection and fetch
// interleaved across entities, §VI-C's efficiency note), exactly how a
// production analytics crawl would batch a whole catalog.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"l2q"
)

const aspect = l2q.Aspect("SAFETY")

func main() {
	sys, err := l2q.NewSyntheticSystem(l2q.Cars, l2q.SystemOptions{
		NumEntities:    40,
		PagesPerEntity: 30,
		Seed:           7,
	})
	if err != nil {
		log.Fatal(err)
	}
	ids := sys.EntityIDs()
	fleet := ids[28:] // the models under analysis
	fmt.Printf("analyzing the %s aspect of %d car models (corpus: %d pages)\n\n",
		aspect, len(fleet), sys.Corpus().NumPages())

	// Domain phase from the remaining models' pages.
	dm, err := sys.LearnDomain(aspect, ids[:28])
	if err != nil {
		log.Fatal(err)
	}

	// Fleet harvest: 3 selected queries per model, pipelined.
	start := time.Now()
	results := sys.HarvestPipelined(context.Background(), fleet, aspect, dm,
		l2q.NewL2QBAL(), 3)
	fmt.Printf("harvested %d models in %v\n\n", len(results), time.Since(start).Round(time.Millisecond))

	type row struct {
		name     string
		pages    int
		relevant int
		relParas int
		topTerms []string
		queries  []l2q.Query
	}
	var rows []row
	for _, r := range results {
		if r.Err != nil {
			log.Fatalf("%s: %v", r.Entity.Name, r.Err)
		}
		rw := row{name: r.Entity.Name, pages: len(r.Pages), queries: r.Fired}
		termCount := map[string]int{}
		for _, p := range r.Pages {
			if sys.Relevant(aspect, p) {
				rw.relevant++
			}
			for i := range p.Paras {
				if p.Paras[i].Aspect != aspect {
					continue
				}
				rw.relParas++
				for _, t := range p.Paras[i].Tokens {
					if len(t) > 3 { // skip short glue words
						termCount[t]++
					}
				}
			}
		}
		rw.topTerms = topK(termCount, 4)
		rows = append(rows, rw)
	}

	sort.Slice(rows, func(i, j int) bool { return rows[i].relParas > rows[j].relParas })
	fmt.Printf("%-24s %6s %6s %7s  %-28s %s\n",
		"model", "pages", "rel", "paras", "aspect vocabulary", "selected queries")
	for _, r := range rows {
		fmt.Printf("%-24s %6d %6d %7d  %-28s %s\n",
			r.name, r.pages, r.relevant, r.relParas,
			strings.Join(r.topTerms, " "), joinQueries(r.queries))
	}

	// The analyst's red flags: models whose safety coverage trails the
	// fleet (the business signal this pipeline exists to surface).
	fmt.Printf("\nthin coverage (bottom quartile by %s paragraphs):\n", aspect)
	for _, r := range rows[len(rows)-len(rows)/4:] {
		fmt.Printf("  %-24s %d paragraphs across %d relevant pages\n", r.name, r.relParas, r.relevant)
	}
}

func topK(counts map[string]int, k int) []string {
	type tc struct {
		t string
		n int
	}
	all := make([]tc, 0, len(counts))
	for t, n := range counts {
		all = append(all, tc{t, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].t < all[j].t
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, 0, k)
	for _, e := range all[:k] {
		out = append(out, e.t)
	}
	return out
}

func joinQueries(qs []l2q.Query) string {
	parts := make([]string, len(qs))
	for i, q := range qs {
		parts[i] = string(q)
	}
	return strings.Join(parts, " | ")
}
