// Quickstart: generate a small synthetic web for one of the paper's two
// domains, learn the domain model of one aspect from peer entities, and
// harvest one entity's pages for it with the balanced L2Q strategy, step by
// step. It ends by harvesting the same entity at the same budget with the
// strategies the paper contrasts L2QBAL with — one precision/recall line
// each: the §VI-B ablations P, P+t and L2QP on researchers (RESEARCH), the
// §VI-C baselines HR, LM and MQ on cars (SAFETY, the business-analytics
// scenario of the introduction).
//
//	go run ./examples/quickstart [-domain researchers|cars]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"l2q"
)

// contrast is one strategy harvested beside L2QBAL.
type contrast struct {
	name string
	sel  l2q.Selector
	dm   *l2q.DomainModel // nil: no domain awareness
}

func main() {
	domain := flag.String("domain", "researchers", "researchers or cars")
	flag.Parse()
	d, aspect := l2q.Researchers, l2q.Aspect("RESEARCH")
	if *domain == "cars" {
		d, aspect = l2q.Cars, "SAFETY"
	} else if *domain != "researchers" {
		log.Fatalf("unknown domain %q: want researchers or cars", *domain)
	}

	// A small corpus so the example runs in seconds; drop the size options
	// for paper scale (996 researchers / 143 cars × 50 pages).
	sys, err := l2q.NewSyntheticSystem(d, l2q.SystemOptions{NumEntities: 60, PagesPerEntity: 30, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	ids := sys.EntityIDs()
	fmt.Printf("corpus: %d %s, %d pages\n", sys.Corpus().NumEntities(), d, sys.Corpus().NumPages())

	// Domain phase (once per domain + aspect): learn template utilities
	// from the first half of the entities.
	dm, err := sys.LearnDomain(aspect, ids[:len(ids)/2])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("domain phase: %d templates, %d candidate queries from %d pages\n",
		len(dm.TemplateRCount), len(dm.Candidates), dm.NumPages)

	// Entity phase: harvest the last entity's pages for the aspect.
	target := sys.Corpus().Entity(ids[len(ids)-1])
	relevant := 0 // the classifier-materialized Y, the paper's ground truth
	for _, p := range sys.Corpus().PagesOf(target.ID) {
		if sys.Relevant(aspect, p) {
			relevant++
		}
	}
	scores := func(pages []*l2q.Page) (precision, recall float64) {
		rel := 0
		for _, p := range pages {
			if p.Entity == target.ID && sys.Relevant(aspect, p) {
				rel++
			}
		}
		return float64(rel) / float64(max(len(pages), 1)), float64(rel) / float64(max(relevant, 1))
	}
	fmt.Printf("\nharvesting %q (seed query %q) for %s: %d relevant pages exist\n",
		target.Name, target.SeedQuery, aspect, relevant)

	h := sys.NewHarvester(target, aspect, dm)
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

	contrasts := []contrast{{"P", l2q.NewP(), nil}, {"P+t", l2q.NewPT(), dm}, {"L2QP", l2q.NewL2QP(), dm}}
	if d == l2q.Cars {
		hr, err := sys.TrainHR(aspect, ids[:len(ids)/2])
		if err != nil {
			log.Fatal(err)
		}
		contrasts = []contrast{{"HR", l2q.NewHR(hr), nil}, {"LM", l2q.NewLM(), nil}, {"MQ", l2q.NewMQFor(d, aspect), nil}}
	}
	fmt.Println("\nthree queries each, same entity:")
	p, r := scores(h.Pages())
	fmt.Printf("  %-6s precision %.2f  recall %.2f\n", "L2QBAL", p, r)
	for _, tc := range contrasts {
		hc := sys.NewHarvester(target, aspect, tc.dm)
		if _, err := hc.RunCtx(ctx, tc.sel, 3); err != nil {
			log.Fatal(err)
		}
		p, r := scores(hc.Pages())
		fmt.Printf("  %-6s precision %.2f  recall %.2f\n", tc.name, p, r)
	}
}
