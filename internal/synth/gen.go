package synth

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"

	"l2q/internal/corpus"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// Domain identifiers for the two corpora reproduced from the paper.
const (
	DomainResearchers corpus.Domain = "researchers"
	DomainCars        corpus.Domain = "cars"
)

// Config controls corpus generation. The zero value is invalid; use
// DefaultConfig or fill every field.
type Config struct {
	Domain corpus.Domain
	// NumEntities is the number of entities (paper: 996 researchers,
	// 143 cars).
	NumEntities int
	// PagesPerEntity is the page count per entity (paper: ~50).
	PagesPerEntity int
	// Seed makes generation deterministic.
	Seed uint64
	// Keep, when non-nil, selects the pages the corpus retains (a cluster
	// node keeps the partitions it serves). An unkept page still draws its
	// text and links from the one RNG stream, so every kept page, link list
	// and entity is bit-identical to the unfiltered run's; it is neither
	// tokenized nor held. The entity table is always complete.
	Keep func(corpus.PageID) bool
}

// DefaultConfig returns the paper-scale configuration for a domain.
func DefaultConfig(domain corpus.Domain) Config {
	switch domain {
	case DomainCars:
		return Config{Domain: domain, NumEntities: 143, PagesPerEntity: 50, Seed: 2016}
	default:
		return Config{Domain: DomainResearchers, NumEntities: 996, PagesPerEntity: 50, Seed: 2016}
	}
}

// TestConfig returns a small configuration suited to unit tests.
func TestConfig(domain corpus.Domain) Config {
	return Config{Domain: domain, NumEntities: 24, PagesPerEntity: 16, Seed: 7}
}

// Generated bundles a corpus with the linguistic resources derived from the
// same vocabulary: the knowledge-base dictionary (our Freebase/MAS stand-in),
// the phrase lexicon, and a tokenizer wired to that lexicon.
type Generated struct {
	Corpus    *corpus.Corpus
	KB        *types.Dictionary
	Lexicon   *textproc.Lexicon
	Tokenizer *textproc.Tokenizer
	// Aspects are the target aspects for this domain (Fig. 9).
	Aspects []corpus.Aspect
}

// spec wires one domain's generator pieces together.
type spec struct {
	aspects    []corpus.Aspect // target aspects
	weights    map[corpus.Aspect]float64
	grammar    map[corpus.Aspect][]string
	filler     []string
	fillerPool []string
	newProfile func(corpus.EntityID, *rand.Rand) *Profile
	kb         func() *types.Dictionary
	anchorTmpl string
}

func specFor(domain corpus.Domain) (*spec, error) {
	switch domain {
	case DomainResearchers:
		return &spec{
			aspects:    ResearcherAspects,
			weights:    researcherAspectWeights,
			grammar:    researcherGrammar,
			filler:     researcherFillerSentences,
			fillerPool: fillerWords,
			newProfile: newResearcherProfile,
			kb:         researcherKB,
			anchorTmpl: "homepage of {firstname} {lastname} at {institute} {instshort}",
		}, nil
	case DomainCars:
		return &spec{
			aspects:    CarAspects,
			weights:    carAspectWeights,
			grammar:    carGrammar,
			filler:     carFillerSentences,
			fillerPool: carFiller,
			newProfile: newCarProfile,
			kb:         carKB,
			anchorTmpl: "{make} {model} {trim} {bodystyle} research page",
		}, nil
	default:
		return nil, fmt.Errorf("synth: unknown domain %q", domain)
	}
}

// resources returns the domain's linguistic resources, which depend on the
// domain alone: the knowledge base, the phrase lexicon derived from it and
// the tokenizer wired to that lexicon.
func (sp *spec) resources() *Generated {
	kb := sp.kb()
	lex := textproc.NewLexicon(kb.Phrases())
	return &Generated{
		KB:        kb,
		Lexicon:   lex,
		Tokenizer: &textproc.Tokenizer{Lexicon: lex},
		Aspects:   sp.aspects,
	}
}

// Generate builds a deterministic synthetic corpus per cfg.
func Generate(cfg Config) (*Generated, error) {
	sp, err := specFor(cfg.Domain)
	if err != nil {
		return nil, err
	}
	if cfg.NumEntities <= 0 || cfg.PagesPerEntity <= 0 {
		return nil, fmt.Errorf("synth: NumEntities and PagesPerEntity must be positive, got %d, %d",
			cfg.NumEntities, cfg.PagesPerEntity)
	}

	g := sp.resources()
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15))

	c := corpus.New(cfg.Domain)
	nextPage := corpus.PageID(0)

	// Sorted aspect list for deterministic weighted sampling.
	allAspects := make([]corpus.Aspect, 0, len(sp.weights))
	for a := range sp.weights {
		allAspects = append(allAspects, a)
	}
	sort.Slice(allAspects, func(i, j int) bool { return allAspects[i] < allAspects[j] })
	weightsVec := make([]float64, len(allAspects))
	for i, a := range allAspects {
		weightsVec[i] = sp.weights[a]
	}

	global := map[string][]string{"filler": sp.fillerPool}

	for id := corpus.EntityID(0); int(id) < cfg.NumEntities; id++ {
		prof := sp.newProfile(id, rng)
		if err := c.AddEntity(prof.Entity); err != nil {
			return nil, err
		}
		fill := newSlotFiller(prof, rng, global)

		for pi := 0; pi < cfg.PagesPerEntity; pi++ {
			// The first len(aspects) pages cycle through the target
			// aspects so every (entity, aspect) pair has at least one
			// relevant page; the rest follow the skewed distribution.
			var primary corpus.Aspect
			if pi < len(sp.aspects) {
				primary = sp.aspects[pi]
			} else {
				primary = allAspects[weightedIndex(rng, weightsVec)]
			}
			paras := genParas(primary, sp, fill, rng)
			if cfg.Keep == nil || cfg.Keep(nextPage) {
				page := &corpus.Page{
					ID:     nextPage,
					Entity: prof.Entity.ID,
					URL:    fmt.Sprintf("http://www.site%03d.example.com/p%d", int(nextPage)%257, nextPage),
					Title:  prof.Entity.Name + " " + strings.ToLower(string(primary)),
				}
				page.SetParas(paras, g.Tokenizer)
				if err := c.AddPage(page); err != nil {
					return nil, err
				}
			}
			nextPage++
		}
	}

	linkPages(c, cfg, rng)

	g.Corpus = c
	return g, nil
}

// linkPages wires a hyperlink graph over the corpus, giving the link-based
// focused-crawler baseline (internal/crawler) a web to walk. The shape
// mirrors real entity pages: strong intra-entity linking (a homepage ring
// plus random internal references), sparse cross-entity links to peers in
// the domain, and no link signal about *aspects* — which is precisely why
// the paper harvests through queries instead of links.
//
// Page IDs are dense and entity-major (entity e's pages are e·P … e·P+P−1),
// so every link target is computed, not looked up: the draws — and with
// them the links of every page the corpus kept — are the same whatever
// cfg.Keep left out.
func linkPages(c *corpus.Corpus, cfg Config, rng *rand.Rand) {
	perEntity := cfg.PagesPerEntity
	total := cfg.NumEntities * perEntity
	kept := c.Pages // ascending by ID
	for id := 0; id < total; id++ {
		first, i := id-id%perEntity, id%perEntity
		var links [4]corpus.PageID
		n := 0
		add := func(l int) {
			if l == id || slices.Contains(links[:n], corpus.PageID(l)) {
				return
			}
			links[n] = corpus.PageID(l)
			n++
		}
		// Ring: every page reaches its entity successor, so the
		// entity's pages are mutually discoverable.
		add(first + (i+1)%perEntity)
		// Two random intra-entity references.
		for k := 0; k < 2; k++ {
			add(first + rng.IntN(perEntity))
		}
		// One cross-entity link with 30% probability.
		if rng.Float64() < 0.3 && total > perEntity {
			add(rng.IntN(total))
		}
		if len(kept) > 0 && int(kept[0].ID) == id {
			if n > 0 {
				kept[0].Links = slices.Clone(links[:n])
			}
			kept = kept[1:]
		}
	}
}

// genParas draws one page's paragraphs (text and label, no tokens): an
// anchor paragraph carrying the seed tokens, a majority of primary-aspect
// paragraphs, one minor-aspect paragraph, and one generic filler paragraph.
func genParas(primary corpus.Aspect, sp *spec, fill *slotFiller, rng *rand.Rand) []corpus.Paragraph {
	nBody := 4 + rng.IntN(4)      // 4..7 body paragraphs
	nPrimary := (nBody*3 + 4) / 5 // ~60%, at least 3 of 4
	if nPrimary < 2 {
		nPrimary = 2
	}

	paras := make([]corpus.Paragraph, 0, nBody+1)
	addPara := func(aspect corpus.Aspect, text string) {
		paras = append(paras, corpus.Paragraph{Text: text, Aspect: aspect})
	}

	// Anchor paragraph: guarantees the seed query matches every page of
	// its entity (real pages about an entity mention the entity).
	fill.reset()
	addPara("", expand(sp.anchorTmpl, fill.fill))

	for i := 0; i < nPrimary; i++ {
		addPara(primary, genParagraph(sp.grammar[primary], sp.filler, fill, rng))
	}

	// One minor-aspect paragraph (a different aspect), one filler.
	minorPool := make([]corpus.Aspect, 0, len(sp.weights))
	for a := range sp.weights {
		if a != primary {
			minorPool = append(minorPool, a)
		}
	}
	sort.Slice(minorPool, func(i, j int) bool { return minorPool[i] < minorPool[j] })
	for i := nPrimary; i < nBody-1; i++ {
		minor := minorPool[rng.IntN(len(minorPool))]
		addPara(minor, genParagraph(sp.grammar[minor], sp.filler, fill, rng))
	}

	fill.reset()
	addPara("", expand(pick(rng, sp.filler), fill.fill))

	return paras
}

// genParagraph produces 2–3 sentences of one aspect, occasionally followed
// by a filler sentence so aspects are not trivially separable.
func genParagraph(templates, filler []string, fill *slotFiller, rng *rand.Rand) string {
	n := 2 + rng.IntN(2)
	sents := make([]string, 0, n+1)
	for i := 0; i < n; i++ {
		fill.reset()
		sents = append(sents, expand(pick(rng, templates), fill.fill))
	}
	if rng.Float64() < 0.25 {
		fill.reset()
		sents = append(sents, expand(pick(rng, filler), fill.fill))
	}
	return strings.Join(sents, ". ") + "."
}

// TargetAspects returns the evaluated aspects of a domain (Fig. 9).
func TargetAspects(domain corpus.Domain) []corpus.Aspect {
	switch domain {
	case DomainCars:
		return CarAspects
	default:
		return ResearcherAspects
	}
}
