package core

import "slices"

// candidatePool is the candidate table of one harvesting session and its
// entity-phase candidate pool Q_E (§III–§IV-C), maintained incrementally
// across Steps instead of being re-enumerated from every gathered page per
// selection — the pool-side counterpart of sessionGraph:
//
//   - every query the pool ever observes — a page n-gram, a domain
//     candidate, a fired query — gets an ordinal, once: one string probe
//     when it appears, ints from then on;
//   - only newly ingested pages are enumerated (pages are immutable and
//     P_E is append-only, so the first-appearance order over the whole
//     page stream is exactly the order the rebuild path produces);
//   - fired queries are retired incrementally — they leave Q_E for good;
//   - domain candidates (§IV-C) form a tail segment in DomainModel order;
//     a domain candidate later observed as a page n-gram migrates into
//     the page segment at its first-appearance position, reproducing the
//     rebuild path's dedup ("page n-grams first") exactly;
//   - the seed-exclusion enumeration config is built once per session
//     (Session.ngCfg) and page enumerations go through the per-page memo
//     (corpus.Page.NGrams), so concurrent sessions and the §V coverage
//     machinery share one enumeration per page.
//
// Ordinals are assigned in first-emission order: the seed pages' n-grams,
// then the domain tail, then each later page's new n-grams — the order in
// which the pool first emits them, so a sessionGraph that enrolls the
// table by ordinal enrolls it in the order it always has (qs[i] is its
// b.qs[i]). The one exception is a fired query the pool had not observed:
// it gets its ordinal when the pool learns of the firing, in state
// candFired, and is never emitted.
//
// The pool's shape depends on whether domain candidates are included and
// on which domain model supplies them, so a session keeps one pool per
// (useDomain, DM) signature and rebuilds only if a selector switches
// signatures mid-session (which none of the stock strategies do).
type candidatePool struct {
	useDomain bool
	dm        *DomainModel // nil when useDomain is false

	nPages int // prefix of s.pages already enumerated
	nFired int // prefix of s.fired already retired

	// ords holds the ordinal of every query observed; qs and state are
	// indexed by it.
	ords  map[Query]int32
	qs    []Query
	state []candState
	// pageSeg holds the live page-derived ordinals in first-appearance
	// order; domainSeg the live domain candidates (DomainModel order) not
	// subsumed by the page segment. The emitted pool is their
	// concatenation.
	pageSeg   []int32
	domainSeg []int32
	// domainDone records that the domain tail has been enumerated — on
	// the first sync, after the seed pages.
	domainDone bool
}

// candState is where an ordinal's query stands in the pool.
type candState uint8

const (
	candPage   candState = iota // live, in pageSeg
	candDomain                  // live, in domainSeg
	candFired                   // fired: out of Q_E for good
)

// newCandidatePool returns an empty pool whose table has room for size
// queries and the model's candidates.
func newCandidatePool(useDomain bool, dm *DomainModel, size int) *candidatePool {
	nDomain := 0
	if dm != nil {
		nDomain = len(dm.Candidates)
	}
	size = max(size, nDomain)
	return &candidatePool{
		useDomain: useDomain,
		dm:        dm,
		ords:      make(map[Query]int32, size),
		qs:        make([]Query, 0, size),
		state:     make([]candState, 0, size),
		pageSeg:   make([]int32, 0, size-nDomain),
		domainSeg: make([]int32, 0, nDomain),
	}
}

// matches reports whether the pool was built for this signature.
func (p *candidatePool) matches(useDomain bool, dm *DomainModel) bool {
	return p != nil && p.useDomain == useDomain && p.dm == dm
}

// add gives q the next ordinal, in state st.
func (p *candidatePool) add(q Query, st candState) int32 {
	o := int32(len(p.qs))
	p.ords[q] = o
	p.qs = append(p.qs, q)
	p.state = append(p.state, st)
	return o
}

// sync brings the pool up to date with the session: retire newly fired
// queries, enumerate newly ingested pages and, on the first sync, the
// domain tail. The per-step work is one probe per newly fired query and
// per n-gram of a new page, plus a compaction pass over a segment that
// lost a member; it allocates nothing steady-state (page enumeration goes
// through the per-page memo).
func (p *candidatePool) sync(s *Session) {
	if len(s.fired) > p.nFired {
		retired := false
		for _, q := range s.fired[p.nFired:] {
			if o, ok := p.ords[q]; !ok {
				p.add(q, candFired)
			} else if p.state[o] != candFired {
				p.state[o] = candFired
				retired = true
			}
		}
		p.nFired = len(s.fired)
		if retired {
			p.pageSeg = p.keep(p.pageSeg, candPage)
			p.domainSeg = p.keep(p.domainSeg, candDomain)
		}
	}

	migrated := false
	for _, page := range s.pages[p.nPages:] {
		for _, qs := range page.NGrams(s.ngCfg) {
			o, ok := p.ords[Query(qs)]
			switch {
			case !ok:
				p.pageSeg = append(p.pageSeg, p.add(Query(qs), candPage))
			case p.state[o] == candDomain:
				// The query migrates from the domain tail into the page
				// segment (the rebuild emits page n-grams first).
				p.state[o] = candPage
				p.pageSeg = append(p.pageSeg, o)
				migrated = true
			}
		}
	}
	p.nPages = len(s.pages)

	if p.dm != nil && !p.domainDone {
		for _, q := range p.dm.Candidates {
			if _, seen := p.ords[q]; !seen {
				p.domainSeg = append(p.domainSeg, p.add(q, candDomain))
			}
		}
		p.domainDone = true
	}
	if migrated {
		p.domainSeg = p.keep(p.domainSeg, candDomain)
	}
	if s.DM != nil {
		s.DM.lastTableSize.Store(int64(len(p.qs)))
	}
}

// keep filters seg down to the ordinals still in state st, in place,
// preserving order.
func (p *candidatePool) keep(seg []int32, st candState) []int32 {
	out := seg[:0]
	for _, o := range seg {
		if p.state[o] == st {
			out = append(out, o)
		}
	}
	return out
}

// appendQueries appends the current Q_E to dst.
func (p *candidatePool) appendQueries(dst []Query) []Query {
	dst = slices.Grow(dst, len(p.pageSeg)+len(p.domainSeg))
	for _, o := range p.pageSeg {
		dst = append(dst, p.qs[o])
	}
	for _, o := range p.domainSeg {
		dst = append(dst, p.qs[o])
	}
	return dst
}

// appendOrds appends the ordinals of the current Q_E to dst, parallel to
// appendQueries.
func (p *candidatePool) appendOrds(dst []int32) []int32 {
	return append(append(dst, p.pageSeg...), p.domainSeg...)
}
