package core

import (
	"l2q/internal/corpus"
	"l2q/internal/par"
)

// sessionGraph is the persistent entity reinforcement graph of one
// harvesting session (§IV-C), maintained incrementally across Steps
// instead of being rebuilt per inference:
//
//   - new result pages and new candidate queries are appended and
//     connected against the existing vertices (delta containment — only
//     new×old and ×new pairs are checked, never old×old again);
//   - fired queries are detached (they leave the candidate pool; an
//     isolated vertex is invisible to both walks, so the graph stays
//     exactly equivalent to a from-scratch build over the current pool);
//   - the page regularization vectors (Eq. 11–12) are updated in place —
//     new pages append their score, the recall vector renormalizes
//     against the running total — and only when an individual utility
//     is requested (the update catches up on every page it skipped);
//   - the last solved utilities of each individual family are kept as
//     warm starts for its next solve (the damped fixpoint is a contraction
//     with a unique solution, so a warm start changes iteration counts,
//     not results, within SolverTol);
//   - conjunctive-containment coverage counts per candidate — the exact
//     redundancy conditionals the collective utilities of §V recount on
//     every step in the rebuild path — fall out of delta connection as a
//     byproduct and are cached.
//
// The graph's shape depends on the InferOptions signature (templates add
// vertices, domain candidates extend the pool), so a session keeps one
// sessionGraph per signature and rebuilds only if a selector switches
// options mid-session (which none of the stock strategies do). The
// requested Utilities are not part of the signature: they decide what is
// solved on the graph, not what the graph is.
type sessionGraph struct {
	b           *graphBuilder
	templates   bool // graph was built with template vertices
	domainCands bool // candidate pool includes domain candidates

	nPagesConnected int // prefix of b.pages already delta-connected
	nFiredSeen      int // prefix of s.fired already detached

	// pageRel caches the binary Y(p) per b.pages index for the coverage
	// counters (classifier calls are memoized but not free); relCount
	// is the number of true entries.
	pageRel  []bool
	relCount int
	// cover counts, per query vertex (indexed like b.qs), the pages and
	// relevant pages containing the query — maintained incrementally, it
	// replaces the per-step O(pages × candidates) recount inside the
	// collective utilities.
	cover []coverage

	// In-place page regularization state (Eq. 11–12). regTotal
	// accumulates clamped scores in page order, reproducing the rebuild
	// path's left-to-right summation exactly.
	reg          regPair
	regTotal     float64
	nPagesScored int

	// prevPrec and prevRecall are the last solved utility vectors of each
	// individual family, node-indexed; they seed that family's next solve
	// when warm starting (new nodes beyond their length cold-start at the
	// regularization).
	prevPrec, prevRecall []float64
}

func newSessionGraph(b *graphBuilder, opts InferOptions) *sessionGraph {
	return &sessionGraph{
		b:           b,
		templates:   opts.UseTemplates,
		domainCands: opts.UseDomainCandidates,
	}
}

// matches reports whether the graph was built for opts' signature; a
// mismatch means the cached graph has the wrong shape and is rebuilt.
func (sg *sessionGraph) matches(opts InferOptions) bool {
	return sg != nil && sg.templates == opts.UseTemplates &&
		sg.domainCands == opts.UseDomainCandidates
}

// pqMatch is one discovered containment edge: a page (by b.pages index)
// and its edge weight, computed in parallel and applied serially.
type pqMatch struct {
	page int32
	w    float64
}

// ingest brings the persistent graph up to date with the session: detach
// newly fired queries, append new pages and new candidate queries, and
// delta-connect — new queries against old pages, every attached query
// against new pages. Containment checks and edge weights run on a bounded
// worker pool (Config.InferWorkers); graph mutation stays serial, so the
// result is deterministic for every worker count.
func (sg *sessionGraph) ingest(s *Session, cands []Query) {
	b := sg.b

	// Retire fired queries: they left the candidate pool for good.
	for _, q := range s.fired[sg.nFiredSeen:] {
		b.detachQuery(q)
	}
	sg.nFiredSeen = len(s.fired)

	// Append new pages (b.pages mirrors s.pages in order) and cache Y.
	oldPages := sg.nPagesConnected
	for _, p := range s.pages[len(b.pages):] {
		b.addPage(p)
	}
	for _, p := range b.pages[len(sg.pageRel):] {
		rel := s.Y(p)
		sg.pageRel = append(sg.pageRel, rel)
		if rel {
			sg.relCount++
		}
	}

	// Append new candidate queries (with their template vertices);
	// addQuery skips the ones already registered.
	firstNew := len(b.qs)
	for _, q := range cands {
		b.addQuery(q)
	}
	newQs := b.qs[firstNew:]
	sg.cover = append(sg.cover, make([]coverage, len(newQs))...)

	workers := s.Cfg.inferWorkers()
	oldSlice := b.pages[:oldPages]
	newSlice := b.pages[oldPages:]

	// Phase A: new queries × old pages.
	matchesA := make([][]pqMatch, len(newQs))
	par.For(len(newQs), workers, func(i int) {
		matchesA[i] = b.findMatches(&newQs[i], oldSlice, 0)
	})

	// Phase B: every attached query (old and new) × new pages.
	var matchesB [][]pqMatch
	if len(newSlice) > 0 {
		matchesB = make([][]pqMatch, len(b.qs))
		par.For(len(b.qs), workers, func(i int) {
			if !b.qs[i].detached {
				matchesB[i] = b.findMatches(&b.qs[i], newSlice, int32(oldPages))
			}
		})
	}

	// Apply edges serially, counting coverage as a byproduct.
	for i, ms := range matchesA {
		sg.applyMatches(firstNew+i, ms)
	}
	for i, ms := range matchesB {
		sg.applyMatches(i, ms)
	}
	sg.nPagesConnected = len(b.pages)
}

// findMatches scans a page window for conjunctive containment of a query,
// returning page indexes offset into b.pages plus edge weights.
func (b *graphBuilder) findMatches(qv *queryVertex, window []*corpus.Page, offset int32) []pqMatch {
	var ms []pqMatch
	for pi, p := range window {
		if p.ContainsQuery(qv.toks) {
			ms = append(ms, pqMatch{page: offset + int32(pi), w: b.edgeWeight(p, qv.toks)})
		}
	}
	return ms
}

// applyMatches adds the discovered edges of query vertex ord.
func (sg *sessionGraph) applyMatches(ord int, ms []pqMatch) {
	b := sg.b
	qid, c := b.qs[ord].node, &sg.cover[ord]
	for _, m := range ms {
		b.g.AddEdgePQ(b.pageNode[b.pages[m.page].ID], qid, m.w)
		c.all++
		if sg.pageRel[m.page] {
			c.rel++
		}
	}
}

// pageReg updates the page regularization vectors in place (Eq. 11–12):
// precision entries are appended for new pages only; the recall vector is
// the precision vector renormalized by the running score total.
func (sg *sessionGraph) pageReg(s *Session) regPair {
	b := sg.b
	n := b.g.NumNodes()
	for len(sg.reg.precision) < n {
		sg.reg.precision = append(sg.reg.precision, 0)
		sg.reg.recall = append(sg.reg.recall, 0)
	}
	score := s.YScore
	if score == nil {
		score = func(p *corpus.Page) float64 {
			if s.Y(p) {
				return 1
			}
			return 0
		}
	}
	for _, p := range b.pages[sg.nPagesScored:] {
		sc := clamp01(score(p))
		sg.reg.precision[b.pageNode[p.ID]] = sc
		sg.regTotal += sc
	}
	sg.nPagesScored = len(b.pages)
	if sg.regTotal > 0 {
		for _, p := range b.pages {
			id := b.pageNode[p.ID]
			sg.reg.recall[id] = sg.reg.precision[id] / sg.regTotal
		}
	}
	return sg.reg
}

// Infer runs the entity phase (§IV-C): bring the session's persistent
// entity reinforcement graph up to date with the current result pages and
// candidate queries (O(Δ) per step, see sessionGraph), regularize with page
// relevance and (optionally) domain template utilities, and compute the
// utility families opts.Utilities asks for — one warm-started fixpoint
// solve per requested individual utility, one pass over the cached coverage
// counts for the collective family, nothing for a family nobody reads.
// InferReference is the retained rebuild-per-step oracle; the two compute
// identical rankings (TestIncrementalMatchesReference).
func (s *Session) Infer(opts InferOptions) (*Inference, error) {
	cands := s.candidateQueries(opts.UseDomainCandidates)
	inf := &Inference{Queries: cands}
	if len(cands) == 0 {
		return inf, nil
	}

	sg := s.sg
	if !sg.matches(opts) {
		sg = newSessionGraph(s.newEntityGraph(opts), opts)
		s.sg = sg
	}
	sg.ingest(s, cands)

	if opts.Utilities&(UtilPrecision|UtilRecall) != 0 {
		prec, rcl, err := s.solveIndividual(inf, sg.b, opts, sg.pageReg(s), sg.prevPrec, sg.prevRecall)
		if err != nil {
			return nil, err
		}
		if prec != nil {
			sg.prevPrec = prec
		}
		if rcl != nil {
			sg.prevRecall = rcl
		}
	}
	if opts.Utilities&UtilCollective != 0 {
		s.collectiveCover(inf, sg.b, sg.relCount, sg.cover)
	}
	return inf, nil
}
