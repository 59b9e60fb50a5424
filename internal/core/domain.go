package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"l2q/internal/corpus"
	"l2q/internal/graph"
	"l2q/internal/par"
	"l2q/internal/template"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// DomainModel is the output of the domain phase (§IV-B) for one aspect:
// template utilities learned once from peer entities, plus the auxiliary
// data the entity phase and the +q baselines need.
//
// The counting statistics and Candidates are set when the model is
// learned. The random-walk utilities (TemplateP, TemplateR, QueryP,
// QueryR) are the two fixpoints' solutions, solved on first read: L2Q*
// reads only the counting statistics, so a model that only harvests with
// it never solves. A solved model equals one solved eagerly.
type DomainModel struct {
	Aspect corpus.Aspect

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
	// masses of TemplateR — which are diluted by mass-splitting across
	// the whole candidate set — these are direct estimates of
	// P(ω ∈ Ω(t) | ω ∈ Ω(Y)) and P(ω ∈ Ω(t)), so they can be combined
	// with R_E(Φ) in Eq. 26 without scale mismatch (see DESIGN.md).
	TemplateRCount     map[string]float64
	TemplateRStarCount map[string]float64

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

	// util holds the fixpoints' solutions once solveOnce has run
	// solveFn (a learned model) or SetUtilities (a loaded one).
	solveOnce sync.Once
	solveFn   func() (*domainUtilities, error)
	util      *domainUtilities
	solveErr  error

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

// domainUtilities are the domain fixpoints' solutions: P_D and R_D per
// template key (they become entity-phase regularization via λ, Eq. 21–22)
// and per domain query (the P+q / R+q strategies consume them directly,
// and fail on entity variation, which is the point of Fig. 10). The query
// rankings those strategies fire in are sorted once, on first use.
type domainUtilities struct {
	templateP, templateR map[string]float64
	queryP, queryR       map[Query]float64

	rankOnce sync.Once
	byP, byR []Query
}

// Solve runs the model's two fixpoints unless they have run: every later
// read of the utilities is a lookup. It returns the solver's error, which
// only a malformed graph can cause.
func (dm *DomainModel) Solve() error {
	dm.solveOnce.Do(func() {
		if dm.solveFn == nil {
			dm.util = &domainUtilities{}
			return
		}
		dm.util, dm.solveErr = dm.solveFn()
		dm.solveFn = nil
	})
	return dm.solveErr
}

// utilities solves on first use; a solver error is a broken invariant.
func (dm *DomainModel) utilities() *domainUtilities {
	if err := dm.Solve(); err != nil {
		panic(fmt.Sprintf("core: domain fixpoints of %s: %v", dm.Aspect, err))
	}
	return dm.util
}

// SetUtilities gives a model its solved utilities, as read back from a
// domain artifact. It panics when the model's utilities were already
// solved or set.
func (dm *DomainModel) SetUtilities(templateP, templateR map[string]float64, queryP, queryR map[Query]float64) {
	set := false
	dm.solveOnce.Do(func() {
		dm.util, set = &domainUtilities{templateP: templateP, templateR: templateR, queryP: queryP, queryR: queryR}, true
	})
	if !set {
		panic("core: SetUtilities on a model whose utilities are set")
	}
}

// TemplateP is P_D(t), keyed by canonical template key (Eq. 21's
// regularization). TemplateP, TemplateR, QueryP and QueryR solve on first
// read; the maps are shared and must not be modified.
func (dm *DomainModel) TemplateP() map[string]float64 { return dm.utilities().templateP }

// TemplateR is R_D(t), keyed by canonical template key.
func (dm *DomainModel) TemplateR() map[string]float64 { return dm.utilities().templateR }

// QueryP is P_D(q) of every domain query.
func (dm *DomainModel) QueryP() map[Query]float64 { return dm.utilities().queryP }

// QueryR is R_D(q) of every domain query.
func (dm *DomainModel) QueryR() map[Query]float64 { return dm.utilities().queryR }

// TopQueriesByP returns the n domain queries with the highest precision
// utility (for the P+q strategy), most useful first. The slice is shared
// and must not be modified.
func (dm *DomainModel) TopQueriesByP(n int) []Query {
	byP, _ := dm.utilities().rankings()
	return byP[:min(n, len(byP)):min(n, len(byP))]
}

// TopQueriesByR returns the n domain queries with the highest recall
// utility (for the R+q strategy), most useful first. The slice is shared
// and must not be modified.
func (dm *DomainModel) TopQueriesByR(n int) []Query {
	_, byR := dm.utilities().rankings()
	return byR[:min(n, len(byR)):min(n, len(byR))]
}

func (u *domainUtilities) rankings() (byP, byR []Query) {
	u.rankOnce.Do(func() { u.byP, u.byR = rankQueries(u.queryP), rankQueries(u.queryR) })
	return u.byP, u.byR
}

// rankQueries orders m's queries by utility, highest first, ties by query.
func rankQueries(m map[Query]float64) []Query {
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
	return qs
}

// DomainSample is the aspect-independent half of the domain phase: over
// the pages of one list of domain entities, the n-grams that survive the
// page-DF pruning with their page and entity counts and template keys,
// the §IV-C candidate pool, and the page–query–template reinforcement
// graph. Model adds an aspect's relevance and packages its DomainModel,
// so every aspect of a domain shares one count and one graph — the shape
// of several per-aspect models fitted over one shared representation —
// and the sample is the one memo of its aspects' models. The count runs
// on the first model learned, the graph on the first solve; a sample is
// safe for concurrent use.
type DomainSample struct {
	cfg         Config
	rec         types.Recognizer
	pages       []*corpus.Page
	numEntities int

	// y is the aspect → relevance provider Model learns under; models
	// memoizes Model per aspect, each entry learning once under its own
	// wait. mu guards the map only.
	y      func(corpus.Aspect) func(*corpus.Page) bool
	mu     sync.Mutex
	models map[corpus.Aspect]func() *DomainModel

	countOnce sync.Once
	queries   []DomainQuery
	// page i contains the queries edges[offs[i]:offs[i+1]] (indexes into
	// queries), in the order of its enumeration.
	edges      []int32
	offs       []int
	candidates []Query

	graphOnce sync.Once
	graph     *graphBuilder
}

// DomainQuery is one query of a DomainSample: an n-gram repeating across
// the sample's pages, with its template keys under the sample's
// recognizer, the number of pages it occurs in and the number of entities
// (an entity counts again when another's page with the n-gram comes
// between two of its own, which only an ID repeated in the sample can
// make happen).
type DomainQuery struct {
	Query    Query
	Keys     []string
	PageDF   int
	EntityDF int
}

// NewDomainSample gathers the pages of domainEntities (in entity order, a
// repeated ID counted each time) for the domain phase. y materializes
// each aspect's relevance for Model (nil when only Learn is used), and
// templates are enumerated under rec. It fails when the entities have no
// pages.
func NewDomainSample(cfg Config, c *corpus.Corpus, domainEntities []corpus.EntityID,
	y func(corpus.Aspect) func(*corpus.Page) bool, rec types.Recognizer) (*DomainSample, error) {

	pages := domainPages(c, domainEntities)
	if len(pages) == 0 {
		return nil, fmt.Errorf("core: domain phase has no pages (%d entities)", len(domainEntities))
	}
	return &DomainSample{cfg: cfg, rec: rec, pages: pages, numEntities: len(domainEntities),
		y: y, models: make(map[corpus.Aspect]func() *DomainModel)}, nil
}

// domainPages gathers the domain split's pages in entity order.
func domainPages(c *corpus.Corpus, domainEntities []corpus.EntityID) []*corpus.Page {
	var pages []*corpus.Page
	for _, id := range domainEntities {
		pages = append(pages, c.PagesOf(id)...)
	}
	return pages
}

// count is the counting pass (§IV-B): one serial scan over the sample's
// pages (countGrams), which keeps the n-grams of two or more pages in
// sorted order and records which of them each page contains. Only the
// kept n-grams are spelled out as strings.
func (s *DomainSample) count() {
	s.countOnce.Do(func() {
		c, ok := s.countGrams(false)
		if !ok {
			c, _ = s.countGrams(true)
		}
		grams, occ, offs := c.grams, c.occ, c.offs

		var kept []int32
		for gi := range grams {
			if grams[gi].pageDF >= MinQueryPageDF {
				kept = append(kept, int32(gi))
			}
		}
		for _, gi := range kept {
			c.spell(gi)
		}
		slices.SortFunc(kept, func(a, b int32) int { return strings.Compare(grams[a].q, grams[b].q) })
		rank := make([]int32, len(grams))
		for gi := range rank {
			rank[gi] = -1
		}
		s.queries = make([]DomainQuery, len(kept))
		for r, gi := range kept {
			rank[gi] = int32(r)
			g := &grams[gi]
			dq := DomainQuery{Query: Query(g.q), PageDF: g.pageDF, EntityDF: g.entityDF}
			if s.rec != nil {
				dq.Keys = template.EnumerateKeys(s.cfg.QueryTokens(dq.Query), s.rec)
			}
			s.queries[r] = dq
		}

		// Keep each page's surviving n-grams, renumbered, in place.
		w, from := 0, 0
		for i := range s.pages {
			for _, gi := range occ[from:offs[i+1]] {
				if r := rank[gi]; r >= 0 {
					occ[w] = r
					w++
				}
			}
			from, offs[i+1] = offs[i+1], w
		}
		s.edges, s.offs = slices.Clone(occ[:w]), offs
		s.candidates = domainCandidates(s.queries, s.numEntities)
	})
}

// gramCount is a sample's counting pass: the distinct n-grams, every
// page's n-grams as indexes into them (page i's are occ[offs[i]:offs[i+1]])
// and a token of each term of the count's vocabulary, by term index.
type gramCount struct {
	grams []sampleGram
	occ   []int32
	offs  []int
	terms []textproc.Token
}

// sampleGram is one distinct n-gram of a count: its term ids, its string
// once it has one, its page and entity counts, the entity of its last
// page and the last page that counted it.
type sampleGram struct {
	key              textproc.GramKey
	q                string
	pageDF, entityDF int
	last             corpus.EntityID
	page             int
}

// tokens returns gram gi's tokens, in buf.
func (c *gramCount) tokens(gi int32, buf *[textproc.MaxGramLen]textproc.Token) []textproc.Token {
	key := c.grams[gi].key
	n := key.Len()
	for i, id := range key[:n] {
		buf[i] = c.terms[id.Index()]
	}
	return buf[:n]
}

// spell sets gram gi's string from its tokens: one fresh string, never a
// piece of a page.
func (c *gramCount) spell(gi int32) {
	if c.grams[gi].q != "" {
		return
	}
	var buf [textproc.MaxGramLen]textproc.Token
	toks := c.tokens(gi, &buf)
	if len(toks) == 1 {
		c.grams[gi].q = strings.Clone(toks[0])
		return
	}
	c.grams[gi].q = textproc.JoinQuery(toks)
}

// countGrams enumerates each sample page's n-grams as term ids: the page's
// whole token stream (paragraphs read through ScanParaTokens, so a page
// that holds no tokens is tokenized into scratch and left as it was), its
// ids under a vocabulary of the count's own, and every admissible window
// (textproc.AppendGramWindows under MaxQueryLen and Stopwords) probed in a
// gram-key table. A page counts each n-gram once, in first-appearance
// order, as textproc.NGrams lists them.
//
// A key stands for one string only when every gram is canonical, as a
// keyCheck under the first page's tokenizer decides: each page must be
// keyed, and the grams across its paragraph ends are checked when its
// tokens are read. byString keys the count by string instead — each new
// key is spelled and looked up by its string, and a second key with a
// known string is an alias of its gram — as it must be when some page is
// not keyed. ok is false when the key count met a page with a gram across
// a paragraph end that is not canonical; the count then has to run again
// by string.
func (s *DomainSample) countGrams(byString bool) (c *gramCount, ok bool) {
	check := keyCheck{tok: s.pages[0].Tokenizer()}
	for _, p := range s.pages {
		byString = byString || !check.keyed(p)
	}
	vocab := textproc.NewVocabulary(Stopwords)
	var (
		index  gramMap[int32] // key → gram index + 1
		strs   map[string]int32
		toks   []textproc.Token
		ends   []int32
		ids    []textproc.TermID
		wins   []textproc.GramWindow
		paraSc []textproc.Token
	)
	if byString {
		strs = make(map[string]int32)
	}
	gramCfg := textproc.IDGramConfig{MaxLen: MaxQueryLen}
	c = &gramCount{offs: make([]int, len(s.pages)+1)}
	for i, p := range s.pages {
		toks, ends = toks[:0], ends[:0]
		for j := range p.Paras {
			toks = append(toks, p.ScanParaTokens(j, &paraSc)...)
			ends = append(ends, int32(len(toks)))
		}
		if !byString && !check.seams(toks, ends) {
			return nil, false
		}
		ids = vocab.AppendIDs(ids[:0], toks)
		for j, id := range ids {
			// The count's own vocabulary numbers terms densely in the
			// order it first meets them.
			if id.Index() == len(c.terms) {
				c.terms = append(c.terms, toks[j])
			}
		}
		wins = textproc.AppendGramWindows(wins[:0], ids, gramCfg)
		for _, w := range wins {
			gi := index.get(w.Key) - 1
			if gi < 0 {
				gram := toks[w.Start : int(w.Start)+w.Key.Len()]
				var q string
				if byString {
					q = textproc.JoinQuery(gram)
					if known, dup := strs[q]; dup {
						gi = known
					} else if len(gram) == 1 {
						q = strings.Clone(q)
					}
				}
				if gi < 0 {
					gi = int32(len(c.grams))
					if byString {
						strs[q] = gi
					}
					c.grams = append(c.grams, sampleGram{key: w.Key, q: q, entityDF: 1, last: p.Entity, page: -1})
				}
				index.put(w.Key, gi+1)
			}
			g := &c.grams[gi]
			if g.page == i {
				continue
			}
			if g.last != p.Entity {
				g.last = p.Entity
				g.entityDF++
			}
			g.page = i
			g.pageDF++
			c.occ = append(c.occ, gi)
		}
		c.offs[i+1] = len(c.occ)
	}
	return c, true
}

// domainCandidates is the §IV-C candidate pool: the surviving queries
// that occur with at least MinDomainEntityFrac of the domain entities
// ("we restrict to queries that occur with at least 50 domain entities"),
// most frequent first, at most MaxDomainCandidates of them.
func domainCandidates(queries []DomainQuery, numEntities int) []Query {
	minEnt := max(2, int(MinDomainEntityFrac*float64(numEntities)))
	var cands []DomainQuery
	for _, dq := range queries {
		if dq.EntityDF >= minEnt {
			cands = append(cands, dq)
		}
	}
	slices.SortFunc(cands, func(a, b DomainQuery) int {
		if a.EntityDF != b.EntityDF {
			return b.EntityDF - a.EntityDF
		}
		return strings.Compare(string(a.Query), string(b.Query))
	})
	out := make([]Query, min(len(cands), MaxDomainCandidates))
	for i := range out {
		out[i] = cands[i].Query
	}
	return out
}

// Queries returns the sample's surviving queries in sorted order. The
// slice is shared and must not be modified.
func (s *DomainSample) Queries() []DomainQuery {
	s.count()
	return s.queries
}

// Candidates returns the sample's §IV-C candidate pool. The slice is
// shared and must not be modified.
func (s *DomainSample) Candidates() []Query {
	s.count()
	return s.candidates
}

// RelDF counts, for each of Queries, the pages relevant under y that
// contain it, and the relevant pages.
func (s *DomainSample) RelDF(y func(*corpus.Page) bool) (relDF []int, numRel int) {
	s.count()
	relDF = make([]int, len(s.queries))
	for i, p := range s.pages {
		if !y(p) {
			continue
		}
		numRel++
		for _, r := range s.edges[s.offs[i]:s.offs[i+1]] {
			relDF[r]++
		}
	}
	return relDF, numRel
}

// Model returns the aspect's model over the sample, learned under the
// sample's relevance provider on the first call and shared by every later
// one. Each aspect learns once: a learned aspect never waits on another's
// learning, and cold aspects learn at the same time.
func (s *DomainSample) Model(aspect corpus.Aspect) *DomainModel {
	s.mu.Lock()
	learn, ok := s.models[aspect]
	if !ok {
		learn = sync.OnceValue(func() *DomainModel { return s.Learn(aspect, s.y(aspect), nil) })
		s.models[aspect] = learn
	}
	s.mu.Unlock()
	return learn()
}

// LearnAspects returns learn's model of every aspect, aspects in
// parallel, each model's fixpoints solved when solve is set: the warm-up
// of a domain artifact (store.DomainLearner.Artifact) and of an
// all-aspects experiment (eval.Env.PretrainDomainModels). The error is the
// first failure in aspect order.
func LearnAspects(aspects []corpus.Aspect, solve bool,
	learn func(corpus.Aspect) (*DomainModel, error)) ([]*DomainModel, error) {

	models := make([]*DomainModel, len(aspects))
	errs := make([]error, len(aspects))
	par.For(len(aspects), func(i int) {
		dm, err := learn(aspects[i])
		if err == nil && solve {
			err = dm.Solve()
		}
		models[i], errs[i] = dm, err
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("aspect %s: %w", aspects[i], err)
		}
	}
	return models, nil
}

// Learn runs the aspect's half of the domain phase over the sample, with
// no memo (Model is the memoized form): y materializes relevance for the
// counting statistics, and score, when non-nil, replaces it in the
// fixpoints' regularization (see LearnDomainScored). The fixpoints run
// when the model's utilities are first read.
func (s *DomainSample) Learn(aspect corpus.Aspect, y func(*corpus.Page) bool,
	score func(*corpus.Page) float64) *DomainModel {

	relDF, numRel := s.RelDF(y)
	dm := newDomainModel(aspect, s.queries, relDF, numRel, len(s.pages), s.numEntities, slices.Clip(s.candidates))
	dm.solveFn = func() (*domainUtilities, error) { return solveDomain(s.domainGraph(), y, score) }
	return dm
}

// domainGraph builds the domain reinforcement graph on first use: page
// and query vertices, then page–query edges from each page's own
// enumeration (the entity phase uses conjunctive containment instead,
// because its candidate pool includes domain queries that are not n-grams
// of the current pages; here queries are generated from the pages,
// exactly as §III describes — "Q can be generated from P, such as by
// taking all n-grams in P as queries"). Solving only reads it, so every
// aspect's fixpoints run over the one graph.
func (s *DomainSample) domainGraph() *graphBuilder {
	s.graphOnce.Do(func() {
		s.count()
		b := newGraphBuilder(s.cfg, s.rec, true)
		for _, p := range s.pages {
			b.addPage(p)
		}
		b.qs = make([]queryVertex, len(s.queries))
		for i, dq := range s.queries {
			b.qs[i] = queryVertex{q: dq.Query, candidateFacts: &candidateFacts{q: dq.Query, keys: dq.Keys, keysSet: true}}
			b.addQueryVertex(&b.qs[i])
		}
		for i, p := range s.pages {
			for _, r := range s.edges[s.offs[i]:s.offs[i+1]] {
				b.addPQEdge(p, &b.qs[r])
			}
		}
		s.graph = b
	})
	return s.graph
}

// LearnDomain runs the domain phase over the pages of the given domain
// entities and packages the aspect's model; its fixpoints are solved on
// first read.
//
// y materializes the aspect's relevance function (classifier output in the
// experiments). rec is the type system used to enumerate templates.
// Learning several aspects over one list of entities is cheaper through
// one DomainSample.
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
// LearnDomainReference learns an identical model by re-enumerating every
// page and solving eagerly (TestLearnDomainMatchesReference).
func LearnDomainScored(cfg Config, aspect corpus.Aspect, c *corpus.Corpus,
	domainEntities []corpus.EntityID, y func(*corpus.Page) bool,
	score func(*corpus.Page) float64, rec types.Recognizer) (*DomainModel, error) {

	s, err := NewDomainSample(cfg, c, domainEntities, nil, rec)
	if err != nil {
		return nil, err
	}
	return s.Learn(aspect, y, score), nil
}

// LearnDomainReference is the retained from-scratch domain phase: one
// counting pass into maps followed by a full re-enumeration pass for edge
// building, both by string, and both fixpoints solved
// before it returns — the differential-testing ground truth (mirroring
// Session.CandidatesReference / InferReference).
func LearnDomainReference(cfg Config, aspect corpus.Aspect, c *corpus.Corpus,
	domainEntities []corpus.EntityID, y func(*corpus.Page) bool,
	score func(*corpus.Page) float64, rec types.Recognizer) (*DomainModel, error) {

	pages := domainPages(c, domainEntities)
	if len(pages) == 0 {
		return nil, fmt.Errorf("core: domain phase has no pages (%d entities)", len(domainEntities))
	}

	// Pass 1: count page-DF, relevant-page-DF and entity-DF per n-gram.
	ngCfg := ngramConfig(nil)
	pageDF, relDF, entityDF := make(map[string]int), make(map[string]int), make(map[string]int)
	numRel := 0
	lastEntity := make(map[string]corpus.EntityID)
	for _, p := range pages {
		rel := y(p)
		if rel {
			numRel++
		}
		for _, q := range textproc.NGrams(p.Tokens(), ngCfg) {
			pageDF[q]++
			if rel {
				relDF[q]++
			}
			if le, seen := lastEntity[q]; !seen || le != p.Entity {
				entityDF[q]++
				lastEntity[q] = p.Entity
			}
		}
	}

	// The n-grams repeating across pages, in sorted (node) order.
	var queries []string
	for q, df := range pageDF {
		if df >= MinQueryPageDF {
			queries = append(queries, q)
		}
	}
	sort.Strings(queries)

	b := newGraphBuilder(cfg, rec, true)
	for _, p := range pages {
		b.addPage(p)
	}
	dqs := make([]DomainQuery, len(queries))
	rel := make([]int, len(queries))
	for i, q := range queries {
		b.addQuery(Query(q))
		dqs[i] = DomainQuery{Query: Query(q), Keys: b.qs[i].keys, PageDF: pageDF[q], EntityDF: entityDF[q]}
		rel[i] = relDF[q]
	}
	// Pass 2: page p connects to query q iff q is one of p's own n-grams.
	for _, p := range pages {
		for _, qs := range textproc.NGrams(p.Tokens(), ngCfg) {
			if ord, ok := b.queries[Query(qs)]; ok {
				b.addPQEdge(p, &b.qs[ord])
			}
		}
	}

	dm := newDomainModel(aspect, dqs, rel, numRel, len(pages), len(domainEntities),
		domainCandidates(dqs, len(domainEntities)))
	u, err := solveDomain(b, y, score)
	if err != nil {
		return nil, err
	}
	dm.SetUtilities(u.templateP, u.templateR, u.queryP, u.queryR)
	return dm, nil
}

// newDomainModel packages the counting statistics of one aspect: queries
// are the surviving domain queries in sorted order, relDF their
// relevant-page counts, numRel and numPages the sample's relevant and
// total pages.
func newDomainModel(aspect corpus.Aspect, queries []DomainQuery, relDF []int,
	numRel, numPages, numEntities int, candidates []Query) *DomainModel {

	dm := &DomainModel{
		Aspect:             aspect,
		TemplateRCount:     make(map[string]float64),
		TemplateRStarCount: make(map[string]float64),
		QueryRCount:        make(map[Query]float64),
		QueryRStarCount:    make(map[Query]float64),
		Candidates:         candidates,
		RelFraction:        float64(numRel) / float64(numPages),
		NumEntities:        numEntities,
		NumPages:           numPages,
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
	tacc := make(map[string]*tAcc)
	for i, dq := range queries {
		for _, key := range dq.Keys {
			a := tacc[key]
			if a == nil {
				a = &tAcc{}
				tacc[key] = a
			}
			if numRel > 0 {
				a.sumRel += float64(relDF[i]) / float64(numRel)
			}
			a.sumAll += float64(dq.PageDF) / float64(numPages)
			a.n++
		}
	}
	for key, a := range tacc {
		dm.TemplateRCount[key] = a.sumRel / float64(a.n)
		dm.TemplateRStarCount[key] = a.sumAll / float64(a.n)
	}

	// Query-level counting priors for transferable queries.
	for i, dq := range queries {
		if dq.EntityDF < 2 {
			continue
		}
		if numRel > 0 {
			dm.QueryRCount[dq.Query] = float64(relDF[i]) / float64(numRel)
		}
		dm.QueryRStarCount[dq.Query] = float64(dq.PageDF) / float64(numPages)
	}
	return dm
}

// solveDomain solves the precision and recall fixpoints over a domain
// graph, regularized by score when it is non-nil and by y otherwise, and
// reads the utilities off its template and query vertices.
func solveDomain(b *graphBuilder, y func(*corpus.Page) bool,
	score func(*corpus.Page) float64) (*domainUtilities, error) {

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
	rcl, err := b.solve(graph.Recall, yReg.recall)
	if err != nil {
		return nil, err
	}
	u := &domainUtilities{
		templateP: make(map[string]float64, len(b.templates)),
		templateR: make(map[string]float64, len(b.templates)),
		queryP:    make(map[Query]float64, len(b.qs)),
		queryR:    make(map[Query]float64, len(b.qs)),
	}
	for key, id := range b.templates {
		u.templateP[key] = prec[id]
		u.templateR[key] = rcl[id]
	}
	for i := range b.qs {
		qv := &b.qs[i]
		u.queryP[qv.q] = prec[qv.node]
		u.queryR[qv.q] = rcl[qv.node]
	}
	return u, nil
}
