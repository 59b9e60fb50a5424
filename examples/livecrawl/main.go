// Live crawl: a focused crawler feeding the very index it is queried
// through. The crawler's page sink streams every fetched page into a
// generational LiveEngine, and the example searches that engine WHILE
// the crawl is still discovering pages — the serving-while-ingesting
// posture the live index exists for. No rebuild, no downtime: each
// absorbed page is searchable from the next query on.
//
// The example ends with the live index's headline correctness check: an
// engine grown page by page must rank EXACTLY like a frozen engine
// rebuilt from scratch over the same page sequence — same pages, same
// order, same scores to the last bit. A mismatch exits non-zero, which
// is how CI uses this program as a smoke test.
package main

import (
	"fmt"
	"log"
	"os"

	"l2q"
)

func main() {
	sys, err := l2q.NewSyntheticSystem(l2q.Researchers, l2q.SystemOptions{
		NumEntities:    40,
		PagesPerEntity: 30,
		Seed:           7,
	})
	if err != nil {
		log.Fatal(err)
	}
	c := sys.Corpus()
	target := c.Entities[c.NumEntities()-1]
	aspect := l2q.Aspect("RESEARCH")
	fmt.Printf("corpus: %d pages; crawling toward %q (aspect %s)\n",
		c.NumPages(), target.Name, aspect)

	// The live index starts EMPTY: everything it serves, the crawler put
	// there. A small memtable forces several generational seals, so the
	// final parity check spans real segment boundaries.
	live := l2q.NewLiveEngine(nil, l2q.EngineOptions{}, l2q.LiveOptions{MemtableDocs: 24})

	// Seed the frontier with the target's seed-query results, fetched
	// from the full corpus engine (the "commercial search engine" hop the
	// paper starts every harvest with).
	var seeds []*l2q.Page
	for _, r := range sys.Engine().SearchWithSeed(target.SeedTokens(), nil) {
		seeds = append(seeds, r.Page)
	}

	query := []string{"research"}
	var ingested []*l2q.Page
	res := l2q.Crawl(l2q.CrawlPageIndex(c), seeds,
		func(p *l2q.Page) bool { return sys.Relevant(aspect, p) },
		l2q.CrawlConfig{
			Budget: 120,
			// The sink runs synchronously per fetch: absorb the page,
			// and every 30 pages query the index mid-crawl.
			Sink: func(p *l2q.Page) {
				live.Add(p)
				ingested = append(ingested, p)
				if len(ingested)%30 == 0 {
					hits := live.View().SearchWithSeed(target.SeedTokens(), query)
					m := live.Metrics()
					fmt.Printf("  %3d pages in (epoch %d, %d segments): top hit for %v → ",
						len(ingested), m.Epoch, m.Segments, query)
					if len(hits) == 0 {
						fmt.Println("none yet")
					} else {
						fmt.Printf("page %d (%.4f)\n", hits[0].Page.ID, hits[0].Score)
					}
				}
			},
		})
	live.Quiesce() // drain background compaction before the final audit
	m := live.Metrics()
	fmt.Printf("crawl done: %d fetches, live index holds %d docs in %d segments (%d compactions)\n",
		res.Fetches, m.NumDocs, m.Segments, m.Compactions)

	// The audit: rebuild a frozen engine over the exact ingest sequence
	// and hold every ranking to bit-identity.
	frozen := l2q.NewEngine(ingested, l2q.EngineOptions{})
	queries := [][]string{{"research"}, {"research", "award"}, {"university"}, nil}
	grown := live.View() // nothing is added any more: one view for the whole audit
	mismatches := 0
	for _, e := range c.Entities {
		for _, q := range queries {
			got := grown.SearchWithSeed(e.SeedTokens(), q)
			want := frozen.SearchWithSeed(e.SeedTokens(), q)
			if len(got) != len(want) {
				fmt.Printf("PARITY BREAK: entity %d query %v: grown %d hits, rebuilt %d\n",
					e.ID, q, len(got), len(want))
				mismatches++
				continue
			}
			for i := range want {
				if got[i].Page.ID != want[i].Page.ID || got[i].Score != want[i].Score {
					fmt.Printf("PARITY BREAK: entity %d query %v rank %d: grown page %d (%.17g), rebuilt page %d (%.17g)\n",
						e.ID, q, i, got[i].Page.ID, got[i].Score, want[i].Page.ID, want[i].Score)
					mismatches++
				}
			}
		}
	}
	if mismatches > 0 {
		fmt.Printf("FAIL: %d ranking mismatches between the grown and rebuilt index\n", mismatches)
		os.Exit(1)
	}
	fmt.Printf("parity: %d entities × %d queries rank identically on the grown and rebuilt index\n",
		c.NumEntities(), len(queries))
}
