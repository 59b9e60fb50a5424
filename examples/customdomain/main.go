// Customdomain: using the library on a domain you define yourself — here a
// tiny "restaurants" vertical with MENU and LOCATION aspects. It shows the
// full wiring NewSyntheticSystem normally hides: building a corpus from raw
// text with paragraph labels, declaring a knowledge-base dictionary for
// templates, and wiring a System from the parts.
package main

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"maps"
	"math/rand/v2"
	"slices"

	"l2q"
	"l2q/internal/corpus"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

var (
	cuisines = []string{"sichuan", "neapolitan", "oaxacan", "tuscan", "izakaya", "provencal"}
	dishes   = []string{"mapo tofu", "margherita", "mole negro", "ribollita", "yakitori", "ratatouille"}
	streets  = []string{"green street", "oak avenue", "harbor road", "mill lane", "king street"}
	cities   = []string{"springfield", "riverton", "lakeview", "hillcrest", "brookside"}
)

func main() {
	// 1. Knowledge base: the type dictionary templates are built from.
	kb := types.NewDictionary()
	kb.AddAll("cuisine", cuisines...)
	kb.AddAll("dish", dishes...)
	kb.AddAll("street", streets...)
	kb.AddAll("city", cities...)

	// 2. Tokenizer wired to the KB's phrases so "mapo tofu" is one token.
	tok := &textproc.Tokenizer{Lexicon: textproc.NewLexicon(kb.Phrases())}

	// 3. A small hand-rolled corpus: 12 restaurants × 8 pages.
	c := buildCorpus(tok)

	// 4. Wire the system and harvest.
	sys, err := l2q.NewSystem(c, kb, []l2q.Aspect{"MENU", "LOCATION"}, tok)
	if err != nil {
		log.Fatal(err)
	}
	dm, err := sys.LearnDomain("MENU", sys.EntityIDs()[:8])
	if err != nil {
		log.Fatal(err)
	}
	// The five templates with the highest domain precision P_D(t), ties
	// by key: reading TemplateP solves the domain fixpoints.
	tp := dm.TemplateP()
	keys := slices.Collect(maps.Keys(tp))
	slices.SortFunc(keys, func(a, b string) int {
		if c := cmp.Compare(tp[b], tp[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	fmt.Printf("learned %d templates from the restaurant domain; the most precise:\n", len(keys))
	for _, k := range keys[:min(5, len(keys))] {
		fmt.Printf("  %.4f  %s\n", tp[k], k)
	}

	target := sys.Corpus().Entity(11)
	h := sys.NewHarvester(target, "MENU", dm)
	fired, err := h.RunCtx(context.Background(), l2q.NewL2QBAL(), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nharvested %q MENU pages with queries %v:\n", target.Name, fired)
	for _, p := range h.Pages() {
		mark := " "
		if p.Entity == target.ID && sys.Relevant("MENU", p) {
			mark = "✓"
		}
		fmt.Printf("  [%s] %s\n", mark, p.Title)
	}
}

// buildCorpus hand-rolls the restaurant corpus. A page gets its paragraphs
// through SetParas, which tokenizes them into the page's one token array.
func buildCorpus(tok *textproc.Tokenizer) *corpus.Corpus {
	rng := rand.New(rand.NewPCG(5, 7))
	c := corpus.New("restaurants")
	pageID := corpus.PageID(0)
	for id := corpus.EntityID(0); id < 12; id++ {
		name := fmt.Sprintf("casa %s", cuisines[int(id)%len(cuisines)])
		seed := fmt.Sprintf("%s %s", name, cities[int(id)%len(cities)])
		if err := c.AddEntity(&corpus.Entity{
			ID: id, Domain: "restaurants", Name: name, SeedQuery: seed,
		}); err != nil {
			log.Fatal(err)
		}
		dish := dishes[int(id)%len(dishes)]
		street := streets[int(id)%len(streets)]
		for pi := 0; pi < 8; pi++ {
			aspect := corpus.Aspect("MENU")
			if pi%2 == 1 {
				aspect = "LOCATION"
			}
			page := &corpus.Page{ID: pageID, Entity: id,
				URL:   fmt.Sprintf("http://food.example/%d", pageID),
				Title: fmt.Sprintf("%s %s", name, aspect)}
			pageID++
			// Anchor paragraph so the seed query matches every page.
			paras := []corpus.Paragraph{{Text: seed + " review page"}}
			for k := 0; k < 3; k++ {
				var text string
				if aspect == "MENU" {
					text = fmt.Sprintf(
						"the menu features %s and seasonal %s specials priced around $%d",
						dish, cuisines[rng.IntN(len(cuisines))], 12+rng.IntN(20))
				} else {
					text = fmt.Sprintf(
						"find us on %s near downtown %s with street parking",
						street, cities[rng.IntN(len(cities))])
				}
				paras = append(paras, corpus.Paragraph{Text: text, Aspect: aspect})
			}
			page.SetParas(paras, tok)
			if err := c.AddPage(page); err != nil {
				log.Fatal(err)
			}
		}
	}
	return c
}
