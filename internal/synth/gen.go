package synth

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
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
	// node keeps the partitions it serves). An unkept page makes the same
	// draws for its text and links from the one RNG stream, so every kept
	// page, link list and entity is bit-identical to the unfiltered run's;
	// its text is never built, and it is neither tokenized nor held. The
	// entity table is always complete.
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
	gen, err := newGenerator(sp, rng)
	if err != nil {
		return nil, err
	}

	c := corpus.New(cfg.Domain)
	nextPage := corpus.PageID(0)
	for id := corpus.EntityID(0); int(id) < cfg.NumEntities; id++ {
		prof := sp.newProfile(id, rng)
		if err := c.AddEntity(prof.Entity); err != nil {
			return nil, err
		}
		gen.f.setProfile(prof, &gen.names, gen.global)

		for pi := 0; pi < cfg.PagesPerEntity; pi++ {
			// The first len(aspects) pages cycle through the target
			// aspects so every (entity, aspect) pair has at least one
			// relevant page; the rest follow the skewed distribution.
			var primary int
			if pi < len(gen.targets) {
				primary = gen.targets[pi]
			} else {
				primary = weightedIndex(rng, gen.weights)
			}
			keep := cfg.Keep == nil || cfg.Keep(nextPage)
			gen.f.build = keep
			gen.page(primary)
			if keep {
				page := &corpus.Page{
					ID:     nextPage,
					Entity: prof.Entity.ID,
					URL:    pageURL(nextPage),
					Title:  prof.Entity.Name + gen.titles[primary],
				}
				page.SetParas(gen.paras(), g.Tokenizer)
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

// pageURL is a page's address: "http://www.site%03d.example.com/p%d" of
// its ID modulo 257 and its ID.
func pageURL(id corpus.PageID) string {
	var arr [48]byte
	b := append(arr[:0], "http://www.site"...)
	b = appendPad3(b, int(id)%257)
	b = append(b, ".example.com/p"...)
	b = strconv.AppendInt(b, int64(id), 10)
	return string(b)
}

// generator is one Generate call's text machinery: the spec's templates,
// each parsed once, its aspects by index, and the filler that draws slot
// values and writes the current page's text into one reused buffer.
type generator struct {
	aspects []corpus.Aspect // every weighted aspect, sorted: the order of the weighted draw
	weights []float64
	titles  []string     // aspect index → " " + the aspect in lower case, a title's suffix
	targets []int        // the spec's target aspects as indexes
	grammar [][]template // by aspect index
	filler  []template
	anchor  template
	names   slotNames
	global  map[string][]string // pools for slots not bound per entity

	f      filler
	ends   []int // the current page's paragraph ends in f.buf
	labels []corpus.Aspect
}

func newGenerator(sp *spec, rng *rand.Rand) (*generator, error) {
	gen := &generator{
		names:  slotNames{ids: make(map[string]int)},
		global: map[string][]string{"filler": sp.fillerPool},
		f:      filler{rng: rng},
	}
	for a := range sp.weights {
		gen.aspects = append(gen.aspects, a)
	}
	slices.Sort(gen.aspects)
	for _, a := range gen.aspects {
		gen.weights = append(gen.weights, sp.weights[a])
		gen.titles = append(gen.titles, " "+strings.ToLower(string(a)))
		gen.grammar = append(gen.grammar, gen.names.parseAll(sp.grammar[a]))
	}
	for _, a := range sp.aspects {
		i := slices.Index(gen.aspects, a)
		if i < 0 {
			return nil, fmt.Errorf("synth: target aspect %s has no weight", a)
		}
		gen.targets = append(gen.targets, i)
	}
	gen.filler = gen.names.parseAll(sp.filler)
	gen.anchor = gen.names.parse(sp.anchorTmpl)
	return gen, nil
}

// page draws one page's paragraphs: an anchor paragraph carrying the seed
// tokens, a majority of primary-aspect paragraphs, minor-aspect
// paragraphs of other aspects, and one generic filler paragraph. With
// f.build set it writes their text into f.buf, one after another, and
// records where each ends; without it it makes the same draws and writes
// nothing.
func (gen *generator) page(primary int) {
	f, rng := &gen.f, gen.f.rng
	f.buf, gen.ends, gen.labels = f.buf[:0], gen.ends[:0], gen.labels[:0]
	nBody := 4 + rng.IntN(4)          // 4..7 body paragraphs
	nPrimary := max((nBody*3+4)/5, 2) // ~60%, at least 3 of 4

	// Anchor paragraph: guarantees the seed query matches every page of
	// its entity (real pages about an entity mention the entity).
	f.sentence(&gen.anchor)
	gen.endPara("")

	for i := 0; i < nPrimary; i++ {
		gen.paragraph(gen.grammar[primary])
		gen.endPara(gen.aspects[primary])
	}

	// A minor aspect is drawn from the other aspects in order: index k
	// of that pool is aspect k, or k+1 from the primary on.
	for i := nPrimary; i < nBody-1; i++ {
		minor := rng.IntN(len(gen.aspects) - 1)
		if minor >= primary {
			minor++
		}
		gen.paragraph(gen.grammar[minor])
		gen.endPara(gen.aspects[minor])
	}

	f.sentence(&gen.filler[rng.IntN(len(gen.filler))])
	gen.endPara("")
}

// paragraph draws 2–3 sentences of one aspect, occasionally followed by a
// filler sentence so aspects are not trivially separable, joined by ". "
// and closed by ".".
func (gen *generator) paragraph(templates []template) {
	f, rng := &gen.f, gen.f.rng
	n := 2 + rng.IntN(2)
	for i := 0; i < n; i++ {
		if i > 0 && f.build {
			f.buf = append(f.buf, ". "...)
		}
		f.sentence(&templates[rng.IntN(len(templates))])
	}
	if rng.Float64() < 0.25 {
		if f.build {
			f.buf = append(f.buf, ". "...)
		}
		f.sentence(&gen.filler[rng.IntN(len(gen.filler))])
	}
	if f.build {
		f.buf = append(f.buf, '.')
	}
}

func (gen *generator) endPara(label corpus.Aspect) {
	gen.ends = append(gen.ends, len(gen.f.buf))
	gen.labels = append(gen.labels, label)
}

// paras copies the built page's text out of the buffer into one string
// of exactly its length, and returns its paragraphs as substrings of it:
// the buffer's spare capacity never stays reachable from a page.
func (gen *generator) paras() []corpus.Paragraph {
	text := string(gen.f.buf)
	paras := make([]corpus.Paragraph, len(gen.ends))
	start := 0
	for i, end := range gen.ends {
		paras[i] = corpus.Paragraph{Text: text[start:end], Aspect: gen.labels[i]}
		start = end
	}
	return paras
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

// TargetAspects returns the evaluated aspects of a domain (Fig. 9).
func TargetAspects(domain corpus.Domain) []corpus.Aspect {
	switch domain {
	case DomainCars:
		return CarAspects
	default:
		return ResearcherAspects
	}
}
