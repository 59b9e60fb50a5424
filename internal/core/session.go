package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// Retriever is the search-engine surface a session needs — the paper's
// black box: fire seed ∥ q, get the top-k pages back. *search.Engine and
// *search.LiveEngine satisfy it in-process; internal/webapi's Client
// satisfies it across an HTTP boundary (the paper's commercial-search-API
// setting), dialed to one server or to a cluster's coordinator.
type Retriever interface {
	// Retrieve runs seed ∥ query and appends the top-k results to dst,
	// returning the grown slice. It returns either the complete ranked
	// list or (nil, error) — never a silently shortened list — so a
	// transport failure stays distinguishable from an unproductive query,
	// and a canceled ctx aborts in-flight remote work. Pages may be
	// retained; dst's backing array stays the caller's.
	Retrieve(ctx context.Context, dst []search.Result, seed, query []textproc.Token) ([]search.Result, error)
	// TopK is the result-list size of every search.
	TopK() int
}

// Session is one harvesting run for one (entity, aspect) pair: it tracks
// the context of past queries Φ, the current result pages P_E, and the
// collective-recall state the context-aware model maintains recursively
// (§V-A: R_E(Φ) decomposes over the query history with base case r0).
type Session struct {
	Cfg    Config
	Engine Retriever
	Entity *corpus.Entity
	Aspect corpus.Aspect
	// Y is the materialized relevance function (classifier output). The
	// session calls it once per gathered page, when the page is merged
	// into P_E, and keeps the answer; a caller that wraps it does so
	// before the first fetch.
	Y func(*corpus.Page) bool
	// YScore, when set, replaces the binary Y in the entity graph's
	// utility regularization (Eq. 11–12) with a real-valued relevance —
	// the paper's §I generalization ("Y can map a page to a real-valued
	// relevance score"). The §V collective-context accounting stays on
	// the binary Y: "a gathered page is relevant" is a set notion. A
	// {0,1}-valued YScore reproduces the binary behavior exactly.
	YScore func(*corpus.Page) float64
	// DM is the domain model; nil runs without domain awareness.
	DM *DomainModel
	// Rec is the type system for templates; nil disables templates.
	Rec types.Recognizer
	// Trace, when set, receives one record per query that enters Φ,
	// replayed ones included (Ingest) — handy for analyzing why a strategy
	// chose what it chose.
	Trace func(TraceRecord)

	seed     []textproc.Token
	fired    []Query
	firedSet map[Query]struct{}
	pages    []*corpus.Page
	pageSet  map[corpus.PageID]struct{}
	// pageRel is Y(p) per s.pages index and relPages the number of true
	// entries: Y is evaluated once, when merge admits the page (classifier
	// calls are memoized but not free), and everything on the incremental
	// path that asks "is this gathered page relevant" reads the record.
	pageRel  []bool
	relPages int

	// ngCfg is the candidate-enumeration config (seed-token exclusion) of
	// the string path CandidatesReference takes, built once at session
	// construction.
	ngCfg textproc.NGramConfig

	// gt is the System's gramTable for this session's configuration and
	// recognizer, and gramCfg the id-path enumeration config over its
	// vocabulary (the seed's term ids excluded).
	gt      *gramTable
	gramCfg textproc.IDGramConfig

	// sg is the persistent entity graph: built lazily on the first Infer
	// and updated with deltas each step.
	sg *sessionGraph

	// pool is the persistent candidate pool Q_E and the session's candidate
	// table, whose ordinals sg's table mirrors: built lazily on the first
	// selection and synced with per-step deltas — only new pages are
	// enumerated (first-appearance order preserved) and fired queries are
	// retired.
	pool *candidatePool

	// candBuf and ordBuf are the session-owned scratch the internal
	// candidateQueries emits Q_E and its ordinals into, reused across steps
	// so steady-state selection does not allocate a fresh pool copy per
	// step. Valid until the next candidateQueries call; the public
	// Candidates returns a fresh slice.
	candBuf []Query
	ordBuf  []int32

	// resBuf is the session-owned result scratch FetchQueryCtx fetches
	// into. Valid until the next fetch on this session — fetch and ingest
	// are sequential per session (the scheduler pipelines across sessions,
	// not within one), and ingest copies the pages it keeps.
	resBuf []search.Result

	// rPhi and rStarPhi are R_E(Φ) and R*_E(Φ), the collective recalls
	// of the context w.r.t. Y and Y* (§V-A). They are maintained from
	// observable state anchored at the seed-recall parameter r0: the
	// seed's g₀ relevant pages correspond to recall r0, implying a
	// relevant universe of g₀/r0 pages, so after gathering g relevant
	// pages R_E(Φ) ≈ g·r0/g₀. (Chaining Eq. 26's own estimates instead
	// compounds the optimism of containment-based priors — containment
	// overstates what top-k retrieval returns — and saturates R_E(Φ)
	// at 1 after one good query, degenerating selection.)
	rPhi, rStarPhi float64
	seedRel        int     // relevant pages retrieved by the seed query
	seedPages      int     // pages retrieved by the seed query
	nStarHat       float64 // estimated page universe |Ω(Y*)| ≈ seedPages/r0*

	rng *rand.Rand

	// selectTime accumulates the CPU time spent choosing queries
	// (the "Selection" column of Fig. 14); chosen and chosenTime are the
	// last Select's query and its time, until Ingest takes the query in.
	selectTime time.Duration
	chosen     Query
	chosenTime time.Duration
	bootOnce   bool
}

// NewSession creates a harvesting session. rngSeed drives only the RND
// strategy; every other selector is deterministic.
func NewSession(cfg Config, engine Retriever, entity *corpus.Entity,
	aspect corpus.Aspect, y func(*corpus.Page) bool, dm *DomainModel,
	rec types.Recognizer, rngSeed uint64) *Session {

	s := &Session{
		Cfg:      cfg,
		Engine:   engine,
		Entity:   entity,
		Aspect:   aspect,
		Y:        y,
		DM:       dm,
		Rec:      rec,
		seed:     cfg.QueryTokens(Query(entity.SeedQuery)),
		firedSet: make(map[Query]struct{}),
		pageSet:  make(map[corpus.PageID]struct{}),
		rng:      rand.New(rand.NewPCG(rngSeed, rngSeed^0xa5a5a5a55a5a5a5a)),
		gt:       cfg.gramTable(rec),
	}
	s.ngCfg = ngramConfig(s.seed)
	s.gramCfg = textproc.IDGramConfig{MaxLen: MaxQueryLen, Exclude: s.gt.vocab.AppendIDs(nil, s.seed)}
	return s
}

// Pages returns the current result pages P_E in retrieval order.
func (s *Session) Pages() []*corpus.Page { return s.pages }

// Fired returns the non-seed queries fired so far, in order.
func (s *Session) Fired() []Query { return s.fired }

// SelectionTime returns accumulated query-selection CPU time.
func (s *Session) SelectionTime() time.Duration { return s.selectTime }

// RPhi returns the model's running estimate of R_E(Φ).
func (s *Session) RPhi() float64 { return s.rPhi }

// Booted reports whether the session has ingested its seed results — the
// state the pipeline scheduler checks to pick a resumed session up at the
// select stage instead of re-firing the seed.
func (s *Session) Booted() bool { return s.bootOnce }

// BootstrapCtx fires the seed query q(0) and initializes the context
// state with the seed-recall parameter r0 (§V-A). It is idempotent. A
// canceled context (or a transport failure the retriever could not retry
// away) surfaces as an error instead of silently bootstrapping from an
// empty seed result.
func (s *Session) BootstrapCtx(ctx context.Context) (int, error) {
	if s.bootOnce {
		return 0, nil
	}
	res, err := s.FetchQueryCtx(ctx, "")
	if err != nil {
		return 0, err
	}
	return s.Ingest("", res), nil
}

// FetchQueryCtx runs the retrieval for q without touching session state;
// the empty query fetches the seed alone. It is the I/O half of a step,
// safe to run under the pipeline scheduler's fetch gate while another
// entity's selection occupies the CPU, and the only way a session
// fetches. Whatever a fetch costs — a remote search, page downloads — is
// the Retriever's: cancellation aborts its in-flight work, and a
// retrieval failure surfaces as an error instead of masquerading as an
// unproductive query. The results live in session-owned scratch, valid
// until the next fetch.
func (s *Session) FetchQueryCtx(ctx context.Context, q Query) ([]search.Result, error) {
	var extra []textproc.Token
	if q != "" {
		extra = s.Cfg.QueryTokens(q)
	}
	res, err := s.Engine.Retrieve(ctx, s.resBuf[:0], s.seed, extra)
	if err != nil {
		return nil, err
	}
	s.resBuf = res
	return res, nil
}

// Select runs sel on the session and times it: the one way a driver
// chooses the next query. The time is added to SelectionTime and carried
// by the TraceRecord of the query when Ingest takes it in. It reports
// false when sel found no candidate; the empty query, which Ingest takes
// for the seed, counts as none.
func (s *Session) Select(sel Selector) (Query, bool) {
	start := time.Now()
	choice, ok := sel.Select(s)
	s.chosen, s.chosenTime = choice.Query, time.Since(start)
	s.selectTime += s.chosenTime
	return choice.Query, ok && choice.Query != ""
}

// Ingest takes q's fetched results in — the one way results enter the
// session. The empty q is the seed: it boots the session and is a no-op
// once booted. Any other q enters Φ: its pages are merged into P_E,
// R_E(Φ) is refreshed, and Trace, when set, gets the step's record, whose
// SelectionTime is that of the Select that chose q (0 for a query no
// Select chose, as a replayed one). Returns the number of new pages.
func (s *Session) Ingest(q Query, res []search.Result) int {
	if q == "" {
		if s.bootOnce {
			return 0
		}
		s.bootOnce = true
		n := s.merge(res)
		s.seedPages, s.seedRel = len(s.pages), s.relPages
		s.updateContext()
		return n
	}
	var selDur time.Duration
	if q == s.chosen {
		selDur, s.chosen = s.chosenTime, ""
	}
	s.fired = append(s.fired, q)
	s.firedSet[q] = struct{}{}
	n := s.merge(res)
	s.updateContext()
	if s.Trace != nil {
		s.Trace(TraceRecord{Iteration: len(s.fired), Query: q, NewPages: n, TotalPages: len(s.pages),
			RPhi: s.rPhi, RStarPhi: s.rStarPhi, SelectionTime: selDur})
	}
	return n
}

// updateContext refreshes R_E(Φ) and R*_E(Φ) from the gathered pages.
//
// The page universe is anchored at the seed's Y*-recall parameter r0*:
// N̂* = |seed results| / r0*. The relevant universe uses the domain's
// aspect frequency when a domain model is available (N̂ = RelFraction·N̂*);
// without a domain model it falls back to the seed-recall anchor g₀/r0
// (§V-A's base case). A mis-sized universe makes R_E(Φ) saturate at 1,
// after which the redundancy discount −R^(Ỹ)(q)·R_E(Φ) drowns every
// covered query and selection degenerates to chasing novelty.
func (s *Session) updateContext() {
	p0 := s.seedPages
	if p0 < 1 {
		p0 = 1
	}
	r0, r0Star := R0, s.Cfg.R0Star
	if r0Star == 0 {
		r0Star = r0 / 3 // in float64 at run time, not exactly at compile time
	}
	s.nStarHat = float64(p0) / r0Star
	s.rStarPhi = clamp01(float64(len(s.pages)) / s.nStarHat)

	var nHat float64
	if s.DM != nil && s.DM.RelFraction > 0 {
		nHat = s.DM.RelFraction * s.nStarHat
	} else {
		g0 := s.seedRel
		if g0 < 1 {
			g0 = 1
		}
		nHat = float64(g0) / r0
	}
	if nHat < 1 {
		nHat = 1
	}
	s.rPhi = clamp01(float64(s.relPages) / nHat)
}

// merge folds results into P_E, recording Y of every page it admits, and
// returns the number of new pages.
func (s *Session) merge(res []search.Result) int {
	added := 0
	for _, r := range res {
		if _, dup := s.pageSet[r.Page.ID]; dup {
			continue
		}
		s.pageSet[r.Page.ID] = struct{}{}
		rel := s.Y(r.Page)
		s.pages = append(s.pages, r.Page)
		s.pageRel = append(s.pageRel, rel)
		if rel {
			s.relPages++
		}
		added++
	}
	return added
}

// Selection is a selector's decision.
type Selection struct {
	Query Query
}

// TraceRecord is one harvesting iteration's outcome.
type TraceRecord struct {
	Iteration  int
	Query      Query
	NewPages   int
	TotalPages int
	// RPhi and RStarPhi are the context state after the step.
	RPhi, RStarPhi float64
	// SelectionTime is the time this step's selection took.
	SelectionTime time.Duration
}

// Selector chooses the next query for a session. Implementations must not
// fire queries themselves; drivers run them through Session.Select.
type Selector interface {
	Name() string
	Select(s *Session) (Selection, bool)
}

// StepCtx runs one iteration of Fig. 1 — Select, FetchQueryCtx, Ingest —
// and reports the query fired and false when the selector found no
// candidate. A canceled context aborts an in-flight remote download, and
// a transport failure that survived the retriever's retry budget surfaces
// as an error; the query is NOT recorded in Φ (no search result was paid
// for), so a resumed session can retry it.
func (s *Session) StepCtx(ctx context.Context, sel Selector) (Query, bool, error) {
	if _, err := s.BootstrapCtx(ctx); err != nil {
		return "", false, err
	}
	q, ok := s.Select(sel)
	if !ok {
		return "", false, nil
	}
	res, err := s.FetchQueryCtx(ctx, q)
	if err != nil {
		return "", false, err
	}
	s.Ingest(q, res)
	return q, true, nil
}

// RunCtx bootstraps and performs n selection iterations, returning the
// fired queries. It stops early if the selector runs out of candidates,
// and at the first failed or canceled fetch, returning the queries fired
// so far alongside the error.
func (s *Session) RunCtx(ctx context.Context, sel Selector, n int) ([]Query, error) {
	if _, err := s.BootstrapCtx(ctx); err != nil {
		return nil, err
	}
	out := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		q, ok, err := s.StepCtx(ctx, sel)
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, q)
	}
	return out, nil
}

// Candidates exposes the entity-phase candidate pool Q_E to selectors
// implemented outside this package (the baselines). The returned slice is
// freshly allocated — callers may retain it across later steps.
func (s *Session) Candidates(useDomain bool) []Query {
	return s.CandidatesAppend(nil, useDomain)
}

// CandidatesAppend is Candidates with a caller-provided buffer: the
// current Q_E is appended to dst and the grown slice returned. A caller
// reusing dst across steps refreshes the pool without allocating (the
// per-step delta work is itself allocation-free steady-state).
func (s *Session) CandidatesAppend(dst []Query, useDomain bool) []Query {
	return s.syncPool(useDomain).appendQueries(dst)
}

// syncPool returns the session's candidate pool for the useDomain
// signature, synced with the session. A new pool's table is sized from
// what the session's model saw last (DomainModel.lastTableSize).
func (s *Session) syncPool(useDomain bool) *candidatePool {
	dm := s.DM
	if !useDomain {
		dm = nil
	}
	if !s.pool.matches(useDomain, dm) {
		size := 0
		if s.DM != nil {
			size = int(s.DM.lastTableSize.Load())
		}
		var tail *domainTail
		if dm != nil {
			tail = dm.tailFor(s.Cfg, s.gt)
		}
		s.pool = newCandidatePool(useDomain, dm, tail, size)
	}
	s.pool.sync(s)
	return s.pool
}

// candidateQueries produces the entity-phase candidate pool Q_E: n-grams
// of the current result pages (excluding seed tokens), optionally extended
// with the domain candidates (§IV-C), minus already-fired queries. The
// result is deterministic: page n-grams in first-appearance order, then
// domain candidates.
//
// ords, parallel to the queries, are their ordinals in the pool's table.
//
// The returned slices are session-owned scratch, valid until the next
// candidateQueries call on this session — internal per-step consumers
// (selectors, inference) use each pool within their step, so reusing one
// buffer removes the per-step copy. External callers go through
// Candidates, which allocates.
//
// The pool persists across steps and is synced with deltas — only new
// pages are enumerated and fired queries removed; CandidatesReference is
// the retained rebuild-per-step oracle, and the two produce identical pools
// (TestCandidatePoolMatchesReference).
func (s *Session) candidateQueries(useDomain bool) (qs []Query, ords []int32) {
	p := s.syncPool(useDomain)
	s.candBuf = p.appendQueries(s.candBuf[:0])
	s.ordBuf = p.appendOrds(s.ordBuf[:0])
	return s.candBuf, s.ordBuf
}

// CandidatesReference is the from-scratch candidate enumeration: it
// re-enumerates the n-grams of every gathered page on every call. It is
// the differential-testing ground truth for the incremental pool,
// mirroring Session.InferReference and search.Engine.SearchReference.
func (s *Session) CandidatesReference(useDomain bool) []Query {
	seen := make(map[Query]struct{})
	var out []Query
	add := func(q Query) {
		if _, dup := seen[q]; dup {
			return
		}
		if _, fired := s.firedSet[q]; fired {
			return
		}
		seen[q] = struct{}{}
		out = append(out, q)
	}
	for _, p := range s.pages {
		for _, qs := range textproc.NGrams(p.Tokens(), s.ngCfg) {
			add(Query(qs))
		}
	}
	if useDomain && s.DM != nil {
		for _, q := range s.DM.Candidates {
			add(q)
		}
	}
	return out
}

// errorf wraps session context into an error. The entity name comes from
// outside the program (an ingested page's EntityName), so it is an
// argument, never part of the format.
func (s *Session) errorf(format string, args ...any) error {
	return fmt.Errorf("l2q[%s/%s]: "+format, append([]any{s.Entity.Name, s.Aspect}, args...)...)
}
