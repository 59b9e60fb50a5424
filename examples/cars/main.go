// Cars: business-analytics scenario from the paper's introduction —
// gathering pages about a car model's SAFETY aspect (e.g. to feed sentiment
// analysis). Compares the full L2Q approach against the LM, AQ and manual
// baselines, reporting cumulative precision/recall per iteration.
package main

import (
	"context"
	"fmt"
	"log"

	"l2q"
)

func main() {
	sys, err := l2q.NewSyntheticSystem(l2q.Cars, l2q.SystemOptions{
		NumEntities:    100,
		PagesPerEntity: 40,
		Seed:           2009, // the paper's model year
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	ids := sys.EntityIDs()
	const aspect = l2q.Aspect("SAFETY")

	dm, err := sys.LearnDomain(aspect, ids[:50])
	if err != nil {
		log.Fatal(err)
	}
	hr, err := sys.TrainHR(aspect, ids[:50])
	if err != nil {
		log.Fatal(err)
	}

	target := sys.Corpus().Entity(ids[len(ids)-1])
	fmt.Printf("target: %q — harvesting %s pages\n\n", target.Name, aspect)

	// Relevant universe for reporting (classifier-materialized Y,
	// exactly what the paper treats as ground truth).
	relUniverse := 0
	for _, p := range sys.Corpus().PagesOf(target.ID) {
		if sys.Relevant(aspect, p) {
			relUniverse++
		}
	}
	fmt.Printf("the corpus holds %d %s-relevant pages for this model\n\n", relUniverse, aspect)

	for _, tc := range []struct {
		name string
		sel  l2q.Selector
		dm   *l2q.DomainModel
	}{
		{"L2QBAL", l2q.NewL2QBAL(), dm},
		{"HR", l2q.NewHR(hr), nil},
		{"LM", l2q.NewLM(), nil},
		{"MQ", l2q.NewMQFor(l2q.Cars, aspect), nil},
	} {
		h := sys.NewHarvester(target, aspect, tc.dm)
		fmt.Printf("%s:\n", tc.name)
		for i := 0; i < 3; i++ {
			q, ok, err := h.StepCtx(ctx, tc.sel)
			if err != nil {
				log.Fatal(err)
			}
			if !ok {
				break
			}
			rel, tot := 0, len(h.Pages())
			for _, p := range h.Pages() {
				if p.Entity == target.ID && sys.Relevant(aspect, p) {
					rel++
				}
			}
			fmt.Printf("  q%d=%-28q precision %.2f  recall %.2f\n",
				i+1, q, float64(rel)/float64(tot), float64(rel)/float64(relUniverse))
		}
		fmt.Println()
	}
}
