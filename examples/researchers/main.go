// Researchers: a deeper tour of domain-aware L2Q on the researcher domain.
// It inspects what the domain phase learned — the highest-utility templates
// — and contrasts three strategies (basic P, template-based P+t, and the
// full L2QP) on the same target entity, mirroring the paper's §VI-B
// ablation narrative.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"l2q"
)

func main() {
	sys, err := l2q.NewSyntheticSystem(l2q.Researchers, l2q.SystemOptions{
		NumEntities:    80,
		PagesPerEntity: 40,
		Seed:           7,
	})
	if err != nil {
		log.Fatal(err)
	}
	ids := sys.EntityIDs()
	const aspect = l2q.Aspect("RESEARCH")

	dm, err := sys.LearnDomain(aspect, ids[:40])
	if err != nil {
		log.Fatal(err)
	}

	// What did the domain phase learn? Show the top templates by
	// precision utility — expect 〈topic〉- and 〈venue〉-shaped patterns.
	type tmpl struct {
		key string
		p   float64
	}
	var tmpls []tmpl
	for k, p := range dm.TemplateP {
		tmpls = append(tmpls, tmpl{key: k, p: p})
	}
	sort.Slice(tmpls, func(i, j int) bool {
		if tmpls[i].p != tmpls[j].p {
			return tmpls[i].p > tmpls[j].p
		}
		return tmpls[i].key < tmpls[j].key
	})
	fmt.Println("top domain templates by precision utility:")
	for _, t := range tmpls[:min(8, len(tmpls))] {
		fmt.Printf("  %-32s P_D = %.3f\n", t.key, t.p)
	}

	// Harvest the same entity with three strategies of increasing
	// sophistication and compare what they gather.
	target := sys.Corpus().Entity(ids[len(ids)-1])
	fmt.Printf("\ntarget: %q, aspect %s\n", target.Name, aspect)

	for _, tc := range []struct {
		name string
		sel  l2q.Selector
		dm   *l2q.DomainModel
	}{
		{"P    (no domain, no context)", l2q.NewP(), nil},
		{"P+t  (templates, no context)", l2q.NewPT(), dm},
		{"L2QP (full approach)", l2q.NewL2QP(), dm},
	} {
		h := sys.NewHarvester(target, aspect, tc.dm)
		fired, err := h.RunCtx(context.Background(), tc.sel, 3)
		if err != nil {
			log.Fatal(err)
		}
		rel, own := 0, 0
		for _, p := range h.Pages() {
			if p.Entity == target.ID {
				own++
				if sys.Relevant(aspect, p) {
					rel++
				}
			}
		}
		fmt.Printf("\n%s\n  queries: %v\n  gathered %d pages (%d of the entity, %d relevant)\n",
			tc.name, fired, len(h.Pages()), own, rel)
	}
}
