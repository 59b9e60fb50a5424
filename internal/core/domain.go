package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"l2q/internal/corpus"
	"l2q/internal/graph"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// DomainModel is the output of the domain phase (§IV-B) for one aspect:
// template utilities learned once from peer entities, plus the auxiliary
// data the entity phase and the +q baselines need.
type DomainModel struct {
	Aspect corpus.Aspect

	// TemplateP and TemplateR are P_D(t) and R_D(t), keyed by canonical
	// template key. They become entity-phase regularization via λ
	// (Eq. 21–22).
	TemplateP map[string]float64
	TemplateR map[string]float64

	// QueryRCount and QueryRStarCount are probability-scale counting
	// estimates for *transferable* domain queries (those occurring with
	// ≥2 domain entities): the fraction of relevant (resp. all) domain
	// pages containing the query. They are the first-choice prior for
	// the collective utilities; queries outside this map fall back to
	// the template-level prior below.
	QueryRCount     map[Query]float64
	QueryRStarCount map[Query]float64

	// TemplateRCount and TemplateRStarCount are *probability-scale*
	// counting estimates used by the collective utilities (§V):
	// the fraction of relevant (resp. all) domain pages containing at
	// least one query the template abstracts. Unlike the random-walk
	// masses above — which are diluted by mass-splitting across the
	// whole candidate set — these are direct estimates of
	// P(ω ∈ Ω(t) | ω ∈ Ω(Y)) and P(ω ∈ Ω(t)), so they can be combined
	// with R_E(Φ) in Eq. 26 without scale mismatch (see DESIGN.md).
	TemplateRCount     map[string]float64
	TemplateRStarCount map[string]float64

	// QueryP and QueryR are the domain queries' own utilities; the P+q /
	// R+q strategies consume them directly (and fail on entity
	// variation, which is the point of Fig. 10).
	QueryP map[Query]float64
	QueryR map[Query]float64

	// Candidates are domain queries occurring with at least
	// MinDomainEntityFrac of the domain entities, most frequent first;
	// the entity phase adds them to its candidate pool (§IV-C).
	Candidates []Query

	// RelFraction is the fraction of domain pages relevant to the
	// aspect — the domain's estimate of how common the aspect is, used
	// to size the target entity's relevant-page universe when
	// maintaining R_E(Φ).
	RelFraction float64

	// NumEntities and NumPages record the domain sample size.
	NumEntities int
	NumPages    int

	// tail is Candidates as sessions enroll them — their facts and keys
	// under one gramTable (see tailFor). It is derived state: never
	// serialised, nil until the first domain-aware session over this
	// model asks for it.
	tailMu sync.Mutex
	tail   *domainTail

	// lastTableSize is the candidate-table size a session over this model
	// last reached: the next session sizes its tables from it once
	// instead of growing them from empty. Derived state, never serialised.
	lastTableSize atomic.Int64
}

// LearnDomain runs the domain phase: build the domain reinforcement graph
// over the pages of the given domain entities, solve precision and recall,
// and package the template utilities.
//
// y materializes the aspect's relevance function (classifier output in the
// experiments). rec is the type system used to enumerate templates.
func LearnDomain(cfg Config, aspect corpus.Aspect, c *corpus.Corpus,
	domainEntities []corpus.EntityID, y func(*corpus.Page) bool,
	rec types.Recognizer) (*DomainModel, error) {
	return LearnDomainScored(cfg, aspect, c, domainEntities, y, nil, rec)
}

// LearnDomainScored is LearnDomain with the paper's real-valued relevance
// generalization (§I: "more generally, Y can map a page to a real-valued
// relevance score"): when score is non-nil it replaces the binary y in the
// utility regularization Eq. 11–12 (P̂(p) = score, R̂(p) = score/Σ). The
// binary y still materializes the counting statistics (relevant-page
// document frequencies, RelFraction) — those are set-cardinality notions.
// A {0,1}-valued score reproduces LearnDomain exactly.
//
// The counting pass (CountDomain) and edge building both read each page's
// memoized enumeration (corpus.Page.NGrams), so the n-gram window slides
// over a page once per process, not once per pass and aspect.
// LearnDomainReference re-enumerates instead and learns an identical model
// (TestLearnDomainMatchesReference).
func LearnDomainScored(cfg Config, aspect corpus.Aspect, c *corpus.Corpus,
	domainEntities []corpus.EntityID, y func(*corpus.Page) bool,
	score func(*corpus.Page) float64, rec types.Recognizer) (*DomainModel, error) {

	counts, err := CountDomain(c, domainEntities, y)
	if err != nil {
		return nil, err
	}
	queries := surviveQueries(counts.PageDF)
	b := buildDomainGraph(cfg, rec, counts.Pages, queries, func(p *corpus.Page) []string {
		return p.NGrams(MaxQueryLen, Stopwords)
	})
	return packageDomainModel(aspect, b, counts, y, score)
}

// LearnDomainReference is the retained from-scratch domain phase: one
// counting pass followed by a full re-enumeration pass for edge building,
// neither through the page memo — the differential-testing ground truth
// (mirroring Session.CandidatesReference / InferReference).
func LearnDomainReference(cfg Config, aspect corpus.Aspect, c *corpus.Corpus,
	domainEntities []corpus.EntityID, y func(*corpus.Page) bool,
	score func(*corpus.Page) float64, rec types.Recognizer) (*DomainModel, error) {

	pages := domainPages(c, domainEntities)
	if len(pages) == 0 {
		return nil, fmt.Errorf("core: domain phase has no pages (%d entities)", len(domainEntities))
	}

	// Pass 1: count page-DF, relevant-page-DF and entity-DF per n-gram.
	ngCfg := ngramConfig(nil)
	counts := newDomainCounts(pages, len(domainEntities))
	lastEntity := make(map[string]corpus.EntityID)
	for _, p := range pages {
		rel := y(p)
		if rel {
			counts.NumRelPages++
		}
		for _, q := range textproc.NGrams(p.Tokens(), ngCfg) {
			counts.PageDF[q]++
			if rel {
				counts.RelDF[q]++
			}
			if le, seen := lastEntity[q]; !seen || le != p.Entity {
				counts.EntityDF[q]++
				lastEntity[q] = p.Entity
			}
		}
	}

	queries := surviveQueries(counts.PageDF)
	// Edges come from a second enumeration pass: page p connects to query
	// q iff q is one of p's own n-grams.
	b := buildDomainGraph(cfg, rec, pages, queries, func(p *corpus.Page) []string {
		return textproc.NGrams(p.Tokens(), ngCfg)
	})
	return packageDomainModel(aspect, b, counts, y, score)
}

// domainPages gathers the domain split's pages in entity order.
func domainPages(c *corpus.Corpus, domainEntities []corpus.EntityID) []*corpus.Page {
	var pages []*corpus.Page
	for _, id := range domainEntities {
		pages = append(pages, c.PagesOf(id)...)
	}
	return pages
}

// DomainCounts is the domain phase's counting pass (§IV-B): over the pages
// of a domain sample, how many pages, relevant pages and entities contain
// each candidate n-gram. The domain graph, its counting priors and the
// §IV-C candidate pool are built from it, and so are the HR baseline's
// [2] harvest rates, which count the same pages the same way.
type DomainCounts struct {
	// Pages are the sample's pages in entity order; NumEntities is the
	// sample's size, a repeated ID counted each time.
	Pages       []*corpus.Page
	NumEntities int
	// PageDF, RelDF and EntityDF map an n-gram to the number of pages,
	// relevant pages and entities it occurs in; an entity counts again
	// when another's page with the n-gram comes between two of its own
	// (only an ID repeated in the sample can make that happen).
	// NumRelPages counts the relevant pages.
	PageDF, RelDF, EntityDF map[string]int
	NumRelPages             int
}

func newDomainCounts(pages []*corpus.Page, numEntities int) *DomainCounts {
	return &DomainCounts{
		Pages:       pages,
		NumEntities: numEntities,
		PageDF:      make(map[string]int),
		RelDF:       make(map[string]int),
		EntityDF:    make(map[string]int),
	}
}

// CountDomain runs the counting pass over the pages of domainEntities,
// with y materializing relevance: one serial sweep over each page's
// memoized n-grams (corpus.Page.NGrams under MaxQueryLen and Stopwords).
// It fails when the entities have no pages.
func CountDomain(c *corpus.Corpus, domainEntities []corpus.EntityID,
	y func(*corpus.Page) bool) (*DomainCounts, error) {

	pages := domainPages(c, domainEntities)
	if len(pages) == 0 {
		return nil, fmt.Errorf("core: domain phase has no pages (%d entities)", len(domainEntities))
	}
	counts := newDomainCounts(pages, len(domainEntities))
	lastEntity := make(map[string]corpus.EntityID)
	for _, p := range pages {
		rel := y(p)
		if rel {
			counts.NumRelPages++
		}
		for _, q := range p.NGrams(MaxQueryLen, Stopwords) {
			counts.PageDF[q]++
			if rel {
				counts.RelDF[q]++
			}
			if le, seen := lastEntity[q]; !seen || le != p.Entity {
				counts.EntityDF[q]++
				lastEntity[q] = p.Entity
			}
		}
	}
	return counts, nil
}

// Candidates is the §IV-C candidate pool: the n-grams that survive the
// page-DF pruning (MinQueryPageDF) and occur with at least
// MinDomainEntityFrac of the domain entities ("we restrict to queries that
// occur with at least 50 domain entities"), most frequent first, at most
// MaxDomainCandidates of them.
func (dc *DomainCounts) Candidates() []Query {
	minEnt := max(2, int(MinDomainEntityFrac*float64(dc.NumEntities)))
	type qc struct {
		q Query
		n int
	}
	var cands []qc
	for q, n := range dc.EntityDF {
		if n >= minEnt && dc.PageDF[q] >= MinQueryPageDF {
			cands = append(cands, qc{q: Query(q), n: n})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		return cands[i].q < cands[j].q
	})
	if len(cands) > MaxDomainCandidates {
		cands = cands[:MaxDomainCandidates]
	}
	out := make([]Query, len(cands))
	for i, c := range cands {
		out[i] = c.q
	}
	return out
}

// surviveQueries keeps the n-grams repeating across pages, in sorted
// (deterministic node) order.
func surviveQueries(pageDF map[string]int) []string {
	queries := make([]string, 0, len(pageDF))
	for q, df := range pageDF {
		if df >= MinQueryPageDF {
			queries = append(queries, q)
		}
	}
	sort.Strings(queries)
	return queries
}

// buildDomainGraph assembles the domain reinforcement graph: page and
// query vertices, then page–query edges from each page's own enumeration
// (the entity phase uses conjunctive containment instead, because its
// candidate pool includes domain queries that are not n-grams of the
// current pages; here queries are generated from the pages, exactly as
// §III describes — "Q can be generated from P, such as by taking all
// n-grams in P as queries"). enum supplies a page's n-grams.
func buildDomainGraph(cfg Config, rec types.Recognizer, pages []*corpus.Page,
	queries []string, enum func(p *corpus.Page) []string) *graphBuilder {

	b := newGraphBuilder(cfg, rec, true)
	for _, p := range pages {
		b.addPage(p)
	}
	for _, q := range queries {
		b.addQuery(Query(q))
	}
	for _, p := range pages {
		for _, qs := range enum(p) {
			if ord, ok := b.queries[Query(qs)]; ok {
				b.addPQEdge(p, &b.qs[ord])
			}
		}
	}
	return b
}

// packageDomainModel solves the two fixpoints over the assembled domain
// graph and packages the DomainModel: template/query utilities, the
// probability-scale counting statistics, and the §IV-C candidate pool
// (DomainCounts.Candidates).
func packageDomainModel(aspect corpus.Aspect, b *graphBuilder,
	counts *DomainCounts, y func(*corpus.Page) bool, score func(*corpus.Page) float64) (*DomainModel, error) {

	var yReg regPair
	if score != nil {
		yReg = b.pageRegularizationScored(score)
	} else {
		yReg = b.pageRegularization(y)
	}
	prec, err := b.solve(graph.Precision, yReg.precision)
	if err != nil {
		return nil, err
	}
	rec1, err := b.solve(graph.Recall, yReg.recall)
	if err != nil {
		return nil, err
	}

	nRelPages, nPages := counts.NumRelPages, len(counts.Pages)
	relDF, pageDF, entityDF := counts.RelDF, counts.PageDF, counts.EntityDF

	dm := &DomainModel{
		Aspect:             aspect,
		TemplateP:          make(map[string]float64, len(b.templates)),
		TemplateR:          make(map[string]float64, len(b.templates)),
		TemplateRCount:     make(map[string]float64, len(b.templates)),
		TemplateRStarCount: make(map[string]float64, len(b.templates)),
		QueryRCount:        make(map[Query]float64),
		QueryRStarCount:    make(map[Query]float64),
		QueryP:             make(map[Query]float64, len(b.queries)),
		QueryR:             make(map[Query]float64, len(b.queries)),
		NumEntities:        counts.NumEntities,
		NumPages:           nPages,
		Candidates:         counts.Candidates(),
	}
	dm.RelFraction = float64(nRelPages) / float64(nPages)
	for key, id := range b.templates {
		dm.TemplateP[key] = prec[id]
		dm.TemplateR[key] = rec1[id]
	}
	for i := range b.qs {
		qv := &b.qs[i]
		dm.QueryP[qv.q] = prec[qv.node]
		dm.QueryR[qv.q] = rec1[qv.node]
	}

	// Probability-scale counting statistics per template: the *mean
	// per-instantiation* coverage over the template's member queries.
	// (Template-level coverage — "some 〈year〉 query appears" — would
	// wildly overestimate what one concrete query like "1980" retrieves;
	// the prior for an unseen query of template t is what a typical
	// member of t achieves.)
	type tAcc struct {
		sumRel, sumAll float64
		n              int
	}
	tacc := make(map[string]*tAcc, len(b.templates))
	for i := range b.qs {
		q := b.qs[i].q
		for _, key := range b.qs[i].keys {
			a := tacc[key]
			if a == nil {
				a = &tAcc{}
				tacc[key] = a
			}
			if nRelPages > 0 {
				a.sumRel += float64(relDF[string(q)]) / float64(nRelPages)
			}
			a.sumAll += float64(pageDF[string(q)]) / float64(nPages)
			a.n++
		}
	}
	for key, a := range tacc {
		dm.TemplateRCount[key] = a.sumRel / float64(a.n)
		dm.TemplateRStarCount[key] = a.sumAll / float64(a.n)
	}

	// Query-level counting priors for transferable queries.
	for i := range b.qs {
		q := b.qs[i].q
		if entityDF[string(q)] < 2 {
			continue
		}
		if nRelPages > 0 {
			dm.QueryRCount[q] = float64(relDF[string(q)]) / float64(nRelPages)
		}
		dm.QueryRStarCount[q] = float64(pageDF[string(q)]) / float64(nPages)
	}

	return dm, nil
}

// TopQueriesByP returns the n domain queries with the highest precision
// utility (for the P+q strategy), most useful first.
func (dm *DomainModel) TopQueriesByP(n int) []Query { return topQueries(dm.QueryP, n) }

// TopQueriesByR returns the n domain queries with the highest recall
// utility (for the R+q strategy), most useful first.
func (dm *DomainModel) TopQueriesByR(n int) []Query { return topQueries(dm.QueryR, n) }

func topQueries(m map[Query]float64, n int) []Query {
	qs := make([]Query, 0, len(m))
	for q := range m {
		qs = append(qs, q)
	}
	sort.Slice(qs, func(i, j int) bool {
		if m[qs[i]] != m[qs[j]] {
			return m[qs[i]] > m[qs[j]]
		}
		return qs[i] < qs[j]
	})
	if n < len(qs) {
		qs = qs[:n]
	}
	return qs
}
