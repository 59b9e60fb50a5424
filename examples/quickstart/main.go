// Quickstart: generate a small synthetic researcher web, learn the domain
// model for the RESEARCH aspect from peer entities, and harvest pages about
// one researcher's RESEARCH with the balanced L2Q strategy.
package main

import (
	"context"
	"fmt"
	"log"

	"l2q"
)

func main() {
	// A small corpus so the example runs in a second or two; drop the
	// options for the paper-scale 996 researchers × 50 pages.
	sys, err := l2q.NewSyntheticSystem(l2q.Researchers, l2q.SystemOptions{
		NumEntities:    60,
		PagesPerEntity: 30,
		Seed:           42,
	})
	if err != nil {
		log.Fatal(err)
	}
	ids := sys.EntityIDs()
	fmt.Printf("corpus: %d entities, %d pages\n",
		sys.Corpus().NumEntities(), sys.Corpus().NumPages())

	// Domain phase (once per domain + aspect): learn template utilities
	// from the first 30 entities.
	dm, err := sys.LearnDomain("RESEARCH", ids[:30])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("domain phase: %d templates, %d candidate queries from %d pages\n",
		len(dm.TemplateP), len(dm.Candidates), dm.NumPages)

	// Entity phase: harvest the last entity's RESEARCH pages.
	target := sys.Corpus().Entity(ids[len(ids)-1])
	fmt.Printf("\nharvesting %q (seed query %q)\n", target.Name, target.SeedQuery)

	ctx := context.Background()
	h := sys.NewHarvester(target, "RESEARCH", dm)
	if _, err := h.BootstrapCtx(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seed retrieved %d pages\n", len(h.Pages()))

	for i := 0; i < 3; i++ {
		q, ok, err := h.StepCtx(ctx, l2q.NewL2QBAL())
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		fmt.Printf("iteration %d: fired %q → %d pages gathered\n", i+1, q, len(h.Pages()))
	}

	fmt.Println("\nharvested pages:")
	for _, p := range h.Pages() {
		mark := " "
		if p.Entity == target.ID && sys.Relevant("RESEARCH", p) {
			mark = "✓"
		}
		fmt.Printf("  [%s] %-40s %s\n", mark, p.Title, p.URL)
	}
}
