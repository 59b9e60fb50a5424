// Package l2q is the public API of the Learning-to-Query (L2Q) library, a
// reproduction of Fang, Zheng & Chang, "Learning to Query: Focused Web Page
// Harvesting for Entity Aspects" (ICDE 2016).
//
// L2Q harvests pages about one aspect of one entity (a researcher's
// RESEARCH, a car's SAFETY) by iteratively choosing the most useful next
// query to fire at a search engine. The library bundles everything the
// paper's system needs: a corpus model, a Dirichlet-smoothed retrieval
// engine, aspect classifiers, a type system with query templates, the
// reinforcement-graph utility inference, domain- and context-aware query
// selection, and the baselines the paper compares against.
//
// # Quick start
//
//	sys, err := l2q.NewSyntheticSystem(l2q.Researchers, l2q.SystemOptions{})
//	if err != nil { ... }
//	entity := sys.Corpus().Entities[0]
//	dm, err := sys.LearnDomain("RESEARCH", sys.EntityIDs()[10:60])
//	h := sys.NewHarvester(entity, "RESEARCH", dm)
//	fired, err := h.RunCtx(ctx, l2q.NewL2QBAL(), 3) // three selected queries
//	pages := h.Pages()                              // harvested result pages
//
// See examples/ for complete programs and DESIGN.md for the mapping from
// the paper's sections to packages.
package l2q

import (
	"fmt"

	"l2q/internal/baselines"
	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/crawler"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// Re-exported core types. The aliases keep one canonical definition in the
// internal packages while giving users a single import.
type (
	// Corpus is a fixed page collection for one domain.
	Corpus = corpus.Corpus
	// Entity is one harvest target, identified by its seed query.
	Entity = corpus.Entity
	// Page is one web page (an ordered list of labeled paragraphs).
	Page = corpus.Page
	// Paragraph is the classifier-granularity text unit.
	Paragraph = corpus.Paragraph
	// Aspect names a target facet, e.g. "RESEARCH" or "SAFETY".
	Aspect = corpus.Aspect
	// Domain names a kind of entity ("researchers", "cars", or custom).
	Domain = corpus.Domain
	// EntityID identifies an entity within a corpus.
	EntityID = corpus.EntityID
	// PageID identifies a page within a corpus.
	PageID = corpus.PageID
	// Query is a candidate query in canonical form.
	Query = core.Query
	// Session is one harvesting run for an (entity, aspect) pair.
	Session = core.Session
	// Selector chooses the next query for a session.
	Selector = core.Selector
	// DomainModel is the output of the domain phase (§IV-B).
	DomainModel = core.DomainModel
	// Engine is the Dirichlet-smoothed retrieval engine.
	Engine = search.Engine
	// EngineOptions tunes the retrieval engine (query-cache capacity).
	// Ranking-neutral.
	EngineOptions = search.Options
	// LiveEngine is the generational writer: it absorbs pages while
	// serving and publishes, per mutation, an Engine (View) that ranks
	// byte-identically to one rebuilt from the same page set.
	LiveEngine = search.LiveEngine
	// LiveOptions tunes a LiveEngine's generational lifecycle.
	LiveOptions = search.LiveOptions
	// LiveMetrics is a LiveEngine's ingest-side gauge snapshot.
	LiveMetrics = search.LiveMetrics
	// HRModel is the harvest-rate baseline's domain statistics.
	HRModel = baselines.HRModel
	// Recognizer maps words to types for template enumeration.
	Recognizer = types.Recognizer
	// Dictionary is a knowledge-base type dictionary.
	Dictionary = types.Dictionary
)

// The two domains reproduced from the paper.
const (
	Researchers = synth.DomainResearchers
	Cars        = synth.DomainCars
)

// Strategy constructors (§VI-B ablations and the full approaches).
var (
	NewRND    = core.NewRND
	NewP      = core.NewP
	NewR      = core.NewR
	NewPQ     = core.NewPQ
	NewRQ     = core.NewRQ
	NewPT     = core.NewPT
	NewRT     = core.NewRT
	NewL2QP   = core.NewL2QP
	NewL2QR   = core.NewL2QR
	NewL2QBAL = core.NewL2QBAL
)

// NewL2QWeighted is the future-work extension of §VI-C: a precision-weight
// β generalization of L2QBAL (β = 0.5 recovers the balanced strategy).
var NewL2QWeighted = core.NewL2QWeighted

// Baseline constructors (§VI-C).
var (
	NewLM    = baselines.NewLM
	NewAQ    = baselines.NewAQ
	NewHR    = baselines.NewHR
	NewMQ    = baselines.NewMQ
	NewMQFor = baselines.NewMQFor
)

// ManualQueries returns the curated per-(domain, aspect) query lists the MQ
// baseline fires.
func ManualQueries(d Domain, a Aspect) []Query { return baselines.ManualQueries(d, a) }

// NewEngine builds a frozen retrieval engine over a fixed page set — the
// immutable counterpart of NewLiveEngine (and the rebuild arm of the
// grown-vs-rebuilt parity contract).
func NewEngine(pages []*Page, opts EngineOptions) *Engine {
	return search.NewEngineOpts(search.BuildIndex(pages), opts)
}

// NewLiveEngine creates a live generational engine, optionally
// bootstrapped with an initial page set (indexed once, as its first sealed
// segment). Search it through View(). See search.NewLiveEngine.
func NewLiveEngine(pages []*Page, opts EngineOptions, lo LiveOptions) *LiveEngine {
	var boot *search.Index
	if len(pages) > 0 {
		boot = search.BuildIndex(pages)
	}
	return search.NewLiveEngine(boot, opts, lo)
}

// Crawler types: the best-first focused crawler, the link-following
// contrast baseline of §II (see internal/crawler).
type (
	// CrawlConfig tunes a focused crawl (budget, frontier cap, page sink).
	CrawlConfig = crawler.Config
	// CrawlResult is the outcome of a focused crawl.
	CrawlResult = crawler.Result
)

// Crawl runs a best-first focused crawl over the fixed corpus web: fetch
// the highest-priority frontier page, classify it with y, enqueue its
// out-links. See crawler.Crawl.
func Crawl(pageByID map[PageID]*Page, seeds []*Page, y func(*Page) bool, cfg CrawlConfig) CrawlResult {
	return crawler.Crawl(pageByID, seeds, y, cfg)
}

// CrawlPageIndex builds the crawler's fetch table for a corpus.
func CrawlPageIndex(c *Corpus) map[PageID]*Page { return crawler.PageIndex(c) }

// SystemOptions sizes a synthetic system's corpus; the zero value is
// paper scale.
type SystemOptions struct {
	// NumEntities and PagesPerEntity size the corpus (0 = paper scale:
	// 996 researchers / 143 cars × 50 pages).
	NumEntities    int
	PagesPerEntity int
	// Seed drives deterministic generation.
	Seed uint64
}

// System bundles a corpus with every substrate wired together: retrieval
// engine, aspect classifiers, type recognizer and the L2Q configuration
// (core.DefaultConfig: the paper's settings, §VI-A).
// Construct with NewSyntheticSystem or NewSystem; a System is safe for
// concurrent harvesting sessions.
type System struct {
	cfg     core.Config
	corpus  *Corpus
	engine  *Engine
	cls     classify.YProvider
	rec     Recognizer
	aspects []Aspect
}

// NewSyntheticSystem generates a synthetic web corpus for one of the
// paper's two domains and trains the aspect classifiers on all of it.
// For the paper's evaluation protocol (classifiers trained on the domain
// half only) use internal/eval via cmd/l2qexp instead.
func NewSyntheticSystem(d Domain, opts SystemOptions) (*System, error) {
	gen := synth.DefaultConfig(d)
	if opts.NumEntities > 0 {
		gen.NumEntities = opts.NumEntities
	}
	if opts.PagesPerEntity > 0 {
		gen.PagesPerEntity = opts.PagesPerEntity
	}
	if opts.Seed != 0 {
		gen.Seed = opts.Seed
	}
	g, err := synth.Generate(gen)
	if err != nil {
		return nil, err
	}
	return NewSystem(g.Corpus, g.KB, g.Aspects, g.Tokenizer)
}

// NewSystem wires a System from explicit parts: a corpus (pages carry
// paragraph labels used to train the aspect classifiers), a knowledge-base
// dictionary for templates, the target aspects, and the tokenizer that
// produced the corpus tokens. Use this for custom domains.
func NewSystem(c *Corpus, kb *Dictionary, aspects []Aspect,
	tok *textproc.Tokenizer) (*System, error) {

	if c == nil || c.NumPages() == 0 {
		return nil, fmt.Errorf("l2q: empty corpus")
	}
	if len(aspects) == 0 {
		return nil, fmt.Errorf("l2q: no target aspects")
	}
	cfg := core.DefaultConfig()
	cfg.Tokenizer = tok
	cls := classify.TrainSet(aspects, c.Pages)
	for _, a := range aspects {
		if !cls.Has(a) {
			return nil, fmt.Errorf("l2q: aspect %s has no training signal in the corpus", a)
		}
	}
	var rec Recognizer = types.NewRegexRecognizer()
	if kb != nil {
		rec = types.Chain{kb, types.NewRegexRecognizer()}
	}
	return &System{
		cfg:     cfg,
		corpus:  c,
		engine:  search.NewEngine(search.BuildIndex(c.Pages)),
		cls:     cls,
		rec:     rec,
		aspects: aspects,
	}, nil
}

// Corpus returns the underlying corpus.
func (s *System) Corpus() *Corpus { return s.corpus }

// Engine returns the retrieval engine.
func (s *System) Engine() *Engine { return s.engine }

// Aspects returns the target aspects.
func (s *System) Aspects() []Aspect { return append([]Aspect(nil), s.aspects...) }

// EntityIDs returns all entity IDs in corpus order.
func (s *System) EntityIDs() []EntityID {
	out := make([]EntityID, 0, s.corpus.NumEntities())
	for _, e := range s.corpus.Entities {
		out = append(out, e.ID)
	}
	return out
}

// Relevant reports the classifier-materialized Y(p) for an aspect.
func (s *System) Relevant(a Aspect, p *Page) bool { return s.cls.Relevant(a, p) }

// LearnDomain runs the domain phase (§IV-B) over the given peer entities
// and returns the learned domain model for the aspect.
func (s *System) LearnDomain(a Aspect, domainEntities []EntityID) (*DomainModel, error) {
	return core.LearnDomain(s.cfg, a, s.corpus, domainEntities, s.cls.YFunc(a), s.rec)
}

// TrainHR fits the harvest-rate baseline's domain statistics (§VI-C).
func (s *System) TrainHR(a Aspect, domainEntities []EntityID) (*HRModel, error) {
	return baselines.TrainHR(s.cfg, s.corpus, domainEntities, s.cls.YFunc(a), s.rec)
}

// Harvester is the session that runs the iterative loop of Fig. 1 for one
// (entity, aspect) pair: BootstrapCtx, then StepCtx per query, or RunCtx
// for the whole budget.
type Harvester = Session

// NewHarvester starts a harvesting session. dm may be nil to run without
// domain awareness.
func (s *System) NewHarvester(e *Entity, a Aspect, dm *DomainModel) *Harvester {
	return s.NewHarvesterSeeded(e, a, dm, 1)
}

// NewHarvesterSeeded is NewHarvester with an explicit RNG seed (only the
// RND strategy consumes randomness).
func (s *System) NewHarvesterSeeded(e *Entity, a Aspect, dm *DomainModel, rngSeed uint64) *Harvester {
	return core.NewSession(s.cfg, s.engine, e, a, s.cls.YFunc(a), dm, s.rec, rngSeed)
}
