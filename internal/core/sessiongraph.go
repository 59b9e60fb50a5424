package core

import (
	"math/bits"

	"l2q/internal/textproc"
)

// sessionGraph is the persistent entity-phase state of one harvesting
// session (§IV-C), maintained incrementally across Steps instead of being
// rebuilt per inference. It has two forms, and a session pays only for the
// one its requests read:
//
//   - table-only, for a session whose requests read no individual utility
//     (L2QP, L2QR, L2QBAL): the candidate table with each candidate's
//     facts and its coverage of the gathered pages — all the collective
//     utilities of §V read — and no graph.Graph, vertex, edge, template,
//     regularization vector or operator;
//   - graph-backed, from the first request that asks for P_E or R_E: the
//     same table plus the entity reinforcement graph over it, the page
//     regularization vectors (Eq. 11–12, updated in place and only when an
//     individual utility is requested — the update catches up on every
//     page it skipped) and the last solved utilities of each individual
//     family as warm starts for its next solve (the damped fixpoint is a
//     contraction with a unique solution, so a warm start changes
//     iteration counts, not results, within SolverTol).
//
// Both forms take deltas the same way: new result pages and new candidate
// queries are appended and connected against what is already there (only
// new×old and ×new pairs, never old×old again), fired queries are detached
// (they leave the candidate pool; an isolated vertex is invisible to both
// walks, so the graph stays exactly equivalent to a from-scratch build
// over the current pool). Containment has one mechanism, pageSets: a
// candidate's pages are the intersection of its terms' page sets, its
// coverage the population count of that intersection, and — graph-backed —
// its new page–query edges the set bits, in page order.
//
// The candidate table is the candidate pool's: query ordinal i of the pool
// is b.qs[i], enrolled in ordinal order as the pool grows, so a step
// registers only the pool's new ordinals and reads everything per
// candidate by ordinal — no string is hashed again. A state built after
// its pool (a rebuild, see below) catches up over the whole table in
// ordinal order; a query fired before its first enrollment is enrolled
// detached, without a vertex.
//
// What is kept depends on the InferOptions signature (templates add
// vertices and priors, domain candidates extend the pool), on the form and
// on the pool mirrored, so a session keeps one sessionGraph per signature
// and rebuilds if a selector switches options mid-session (which none of
// the stock strategies do), asks a table-only one for an individual
// utility, or switched the pool's signature in between. A graph-backed
// one serves collective requests as it is: beyond the form, the requested
// Utilities decide what is solved, not what is kept.
type sessionGraph struct {
	b         *graphBuilder
	pool      *candidatePool // the pool whose table b.qs mirrors
	templates bool           // built with template keys and domain priors

	nFiredSeen int // prefix of s.fired already detached

	// sets indexes the gathered pages by term, rel is the set of relevant
	// ones (Session.pageRel as a bitset, sets.stride words), and query
	// ord's term sets are qtok[qtokAt[ord]:qtokAt[ord+1]].
	sets   pageSets
	rel    []uint64
	qtok   []int32
	qtokAt []int32
	// cover counts, per query (indexed like b.qs), the pages and relevant
	// pages containing it — maintained incrementally, it replaces the
	// per-step O(pages × candidates) recount inside the collective
	// utilities. A detached query's entry is no longer updated.
	cover []coverage

	// In-place page regularization state (Eq. 11–12), graph-backed only.
	// regTotal accumulates clamped scores in page order, reproducing the
	// rebuild path's left-to-right summation exactly.
	reg          regPair
	regTotal     float64
	nPagesScored int

	// prevPrec and prevRecall are the last solved utility vectors of each
	// individual family, node-indexed; they seed that family's next solve
	// when warm starting (new nodes beyond their length cold-start at the
	// regularization).
	prevPrec, prevRecall []float64
}

// newSessionGraph returns an empty state mirroring pool p, its candidate
// table sized for the pool's.
func newSessionGraph(s *Session, opts InferOptions, p *candidatePool) *sessionGraph {
	b := s.newEntityGraph(opts, opts.individual())
	b.table = s.gt
	b.qs = make([]queryVertex, 0, cap(p.qs))
	qtokAt := make([]int32, 1, cap(p.qs)+1)
	return &sessionGraph{
		b:         b,
		pool:      p,
		templates: opts.UseTemplates,
		qtokAt:    qtokAt,
		cover:     make([]coverage, 0, cap(p.qs)),
	}
}

// matches reports whether the state was built for opts' signature, in a
// form that can answer opts and over pool p — the pool of opts'
// UseDomainCandidates signature; a mismatch means it is rebuilt.
func (sg *sessionGraph) matches(opts InferOptions, p *candidatePool) bool {
	return sg != nil && sg.pool == p && sg.templates == opts.UseTemplates &&
		(sg.b.g != nil || !opts.individual())
}

// pageSets is a session's containment index: for every term of a gathered
// page or a registered candidate, the set of gathered pages holding it, as
// a bitset over graphBuilder.pages indexes. A term's set is numbered in
// order of first use, found through a dense table indexed by the term's
// vocabulary index — no probe of any map; it grows to the highest index
// the session meets, 4 bytes a term — and the sets share one backing
// array at a fixed stride, so a term costs no allocation of its own.
type pageSets struct {
	slot   []int32  // by TermID.Index: the term's set number + 1, 0 for none yet
	n      int      // sets numbered
	stride int      // words per set: 64·stride ≥ pages
	words  []uint64 // set t is words[t*stride : (t+1)*stride]
}

// set returns the number of id's set, giving a term not seen before an
// empty one.
func (ps *pageSets) set(id textproc.TermID) int32 {
	i := id.Index()
	if i >= len(ps.slot) {
		ps.slot = append(ps.slot, make([]int32, i+1-len(ps.slot))...)
	}
	if ps.slot[i] == 0 {
		ps.n++
		ps.slot[i] = int32(ps.n)
		ps.words = append(ps.words, make([]uint64, ps.stride)...)
	}
	return ps.slot[i] - 1
}

// reserve widens every set to hold nPages pages. The stride at least
// doubles, so a session re-lays its sets out O(log pages) times.
func (ps *pageSets) reserve(nPages int) {
	need := (nPages + 63) / 64
	if need <= ps.stride {
		return
	}
	stride := max(need, 2*ps.stride)
	words := make([]uint64, ps.n*stride)
	for t := range ps.n {
		copy(words[t*stride:], ps.words[t*ps.stride:(t+1)*ps.stride])
	}
	ps.stride, ps.words = stride, words
}

// add records that page (a graphBuilder.pages index within the reserved
// range) holds token t.
func (ps *pageSets) add(t int32, page int) {
	ps.words[int(t)*ps.stride+page/64] |= 1 << (page % 64)
}

// ingest brings the persistent state up to date with the session and its
// synced pool: detach newly fired queries, append new pages and the pool's
// new ordinals, and delta-connect — new queries against old pages, then
// every attached query against new pages, the order the graph's edge lists
// and weight totals have always been built in.
func (sg *sessionGraph) ingest(s *Session) {
	b, p := sg.b, sg.pool

	// Retire fired queries: they left the candidate pool for good. The
	// synced pool holds an ordinal for every fired query; one not enrolled
	// yet is enrolled detached below.
	for _, o := range p.firedOrds[sg.nFiredSeen:] {
		if int(o) < len(b.qs) {
			b.detach(int(o))
		}
	}
	sg.nFiredSeen = len(s.fired)

	// Append new pages (b.pages mirrors s.pages in order) and index them
	// by the term ids the pool enumerated them by.
	oldPages := len(b.pages)
	sg.sets.reserve(len(s.pages))
	for len(sg.rel) < sg.sets.stride {
		sg.rel = append(sg.rel, 0)
	}
	vocab := b.table.vocab
	for i, p := range s.pages[oldPages:] {
		pi := oldPages + i
		b.addPage(p)
		for _, id := range p.TermIDs(vocab) {
			sg.sets.add(sg.sets.set(id), pi)
		}
		if s.pageRel[pi] {
			sg.rel[pi/64] |= 1 << (pi % 64)
		}
	}

	// Append the pool's new ordinals with the facts the pool resolved:
	// template keys and priors arrive as one batch, and — graph-backed —
	// each live one then gets its vertex and template vertices, in ordinal
	// order.
	firstNew := len(b.qs)
	for o := firstNew; o < len(p.qs); o++ {
		b.qs = append(b.qs, queryVertex{q: p.qs[o], candidateFacts: p.facts[o], detached: p.state[o] == candFired})
	}
	fresh := b.qs[firstNew:]
	b.table.fillModel(b.rec, b.dm, fresh)
	for i := range fresh {
		if qv := &fresh[i]; !qv.detached {
			if b.g != nil {
				b.addQueryVertex(qv)
			}
			for _, id := range qv.ids {
				sg.qtok = append(sg.qtok, sg.sets.set(id))
			}
		}
		sg.qtokAt = append(sg.qtokAt, int32(len(sg.qtok)))
	}
	sg.cover = append(sg.cover, make([]coverage, len(fresh))...)

	for ord := firstNew; ord < len(b.qs); ord++ {
		if !b.qs[ord].detached {
			sg.connect(ord, 0, oldPages)
		}
	}
	if len(b.pages) > oldPages {
		for ord := range b.qs {
			if !b.qs[ord].detached {
				sg.connect(ord, oldPages, len(b.pages))
			}
		}
	}
}

// connect finds the pages with index in [lo, hi) that contain query ord —
// conjunctive containment (corpus.Page.ContainsQuery) as the intersection
// of its tokens' page sets — adds them to its coverage and, graph-backed,
// gives each a page–query edge, page index ascending.
func (sg *sessionGraph) connect(ord, lo, hi int) {
	toks := sg.qtok[sg.qtokAt[ord]:sg.qtokAt[ord+1]]
	if len(toks) == 0 {
		return // the empty query is contained in no page
	}
	b, c := sg.b, &sg.cover[ord]
	for w := lo / 64; w*64 < hi; w++ {
		// The bits of word w that fall inside [lo, hi).
		set := ^uint64(0)
		if lo > w*64 {
			set <<= lo - w*64
		}
		if hi < (w+1)*64 {
			set &= 1<<(hi-w*64) - 1
		}
		for _, t := range toks {
			set &= sg.sets.words[int(t)*sg.sets.stride+w]
		}
		c.all += int32(bits.OnesCount64(set))
		c.rel += int32(bits.OnesCount64(set & sg.rel[w]))
		if b.g == nil {
			continue
		}
		for ; set != 0; set &= set - 1 {
			b.addPQEdge(b.pages[w*64+bits.TrailingZeros64(set)], &b.qs[ord])
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
	for i := sg.nPagesScored; i < len(b.pages); i++ {
		p, sc := b.pages[i], 0.0
		if s.YScore != nil {
			sc = clamp01(s.YScore(p))
		} else if s.pageRel[i] {
			sc = 1
		}
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
// state up to date with the current result pages and candidate queries
// (O(Δ) per step, see sessionGraph) and compute the utility families
// opts.Utilities asks for — for each requested individual utility one
// warm-started fixpoint solve over the entity reinforcement graph,
// regularized with page relevance and (optionally) domain template
// utilities; for the collective family one pass over the cached coverage
// counts, with no graph at all unless an individual utility was ever
// requested; nothing for a family nobody reads. InferReference is the
// retained rebuild-per-step oracle; the two compute identical rankings
// (TestIncrementalMatchesReference).
func (s *Session) Infer(opts InferOptions) (*Inference, error) {
	cands, ords := s.candidateQueries(opts.UseDomainCandidates)
	inf := &Inference{Queries: cands}
	if len(cands) == 0 {
		return inf, nil
	}

	sg := s.sg
	if !sg.matches(opts, s.pool) {
		sg = newSessionGraph(s, opts, s.pool)
		s.sg = sg
	}
	sg.ingest(s)

	if opts.individual() {
		prec, rcl, err := s.solveIndividual(inf, ords, sg.b, opts, sg.pageReg(s), sg.prevPrec, sg.prevRecall)
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
		s.collectiveCover(inf, ords, sg.b, s.relPages, sg.cover)
	}
	return inf, nil
}
