package core

// candidatePool is the persistent entity-phase candidate pool Q_E of one
// harvesting session (§III–§IV-C), maintained incrementally across Steps
// instead of being re-enumerated from every gathered page per selection —
// the pool-side counterpart of sessionGraph:
//
//   - only newly ingested pages are enumerated (pages are immutable and
//     P_E is append-only, so the first-appearance order over the whole
//     page stream is exactly the order the rebuild path produces);
//   - fired queries are removed incrementally — they leave Q_E for good;
//   - domain candidates (§IV-C) form a tail segment in DomainModel order;
//     a domain candidate later observed as a page n-gram migrates into
//     the page segment at its first-appearance position, reproducing the
//     rebuild path's dedup ("page n-grams first") exactly;
//   - the seed-exclusion enumeration config is built once per session
//     (Session.ngCfg) and page enumerations go through the per-page memo
//     (corpus.Page.NGrams), so concurrent sessions and the §V coverage
//     machinery share one enumeration per page.
//
// The pool's shape depends on whether domain candidates are included and
// on which domain model supplies them, so a session keeps one pool per
// (useDomain, DM) signature and rebuilds only if a selector switches
// signatures mid-session (which none of the stock strategies do).
type candidatePool struct {
	useDomain bool
	dm        *DomainModel // nil when useDomain is false

	nPages int // prefix of s.pages already enumerated
	nFired int // prefix of s.fired already removed

	// pageSeen records every query ever observed as a page n-gram —
	// including fired ones — so re-observation never re-adds a query and
	// the domain tail never re-emits a page-covered query.
	pageSeen map[Query]struct{}
	// pageSeg holds the live page-derived candidates in first-appearance
	// order; domainSeg holds the live domain candidates (DomainModel
	// order) not subsumed by the page segment. The emitted pool is their
	// concatenation.
	pageSeg   []Query
	domainSeg []Query
	// domainLive tracks membership of domainSeg for O(1) migration checks.
	domainLive map[Query]bool

	// firedScratch is the reusable newly-fired set of one appendPool pass,
	// cleared (but kept at capacity) between passes so steady-state pool
	// refresh does not allocate it per step.
	firedScratch map[Query]struct{}
}

func newCandidatePool(useDomain bool, dm *DomainModel) *candidatePool {
	p := &candidatePool{
		useDomain: useDomain,
		dm:        dm,
		pageSeen:  make(map[Query]struct{}),
	}
	if dm != nil {
		p.domainLive = make(map[Query]bool, len(dm.Candidates))
		p.domainSeg = make([]Query, 0, len(dm.Candidates))
		for _, q := range dm.Candidates {
			if p.domainLive[q] {
				continue // defensive: Candidates are distinct by construction
			}
			p.domainLive[q] = true
			p.domainSeg = append(p.domainSeg, q)
		}
	}
	return p
}

// matches reports whether the pool was built for this signature.
func (p *candidatePool) matches(useDomain bool, dm *DomainModel) bool {
	return p != nil && p.useDomain == useDomain && p.dm == dm
}

// appendPool brings the pool up to date with the session — remove newly
// fired queries, enumerate newly ingested pages — and appends the current
// Q_E to dst. The per-step work is O(new fired + new pages' n-grams + |Q_E|
// copy), never a re-enumeration of old pages, and it allocates nothing
// steady-state (the newly-fired scratch set is pool-owned and reused; page
// enumeration goes through the per-page memo), so with a reused dst a
// no-delta refresh is allocation-free.
func (p *candidatePool) appendPool(dst []Query, s *Session) []Query {
	// Retire newly fired queries: remove them from whichever segment
	// holds them. (A query fired before ever being observed stays out of
	// both segments via the firedSet check below.)
	if len(s.fired) > p.nFired {
		if p.firedScratch == nil {
			p.firedScratch = make(map[Query]struct{}, len(s.fired)-p.nFired)
		}
		firedNow := p.firedScratch
		for _, q := range s.fired[p.nFired:] {
			firedNow[q] = struct{}{}
		}
		p.pageSeg = removeQueries(p.pageSeg, firedNow)
		if len(p.domainSeg) > 0 {
			p.domainSeg = removeQueries(p.domainSeg, firedNow)
			for q := range firedNow {
				delete(p.domainLive, q)
			}
		}
		clear(firedNow)
		p.nFired = len(s.fired)
	}

	// Enumerate new pages only, in ingest order.
	for _, page := range s.pages[p.nPages:] {
		for _, qs := range page.NGrams(s.ngCfg) {
			q := Query(qs)
			if _, dup := p.pageSeen[q]; dup {
				continue
			}
			p.pageSeen[q] = struct{}{}
			if p.domainLive[q] {
				// The query migrates from the domain tail into the page
				// segment (the rebuild emits page n-grams first).
				p.domainSeg = removeQuery(p.domainSeg, q)
				delete(p.domainLive, q)
			}
			if _, fired := s.firedSet[q]; fired {
				continue
			}
			p.pageSeg = append(p.pageSeg, q)
		}
	}
	p.nPages = len(s.pages)

	dst = append(dst, p.pageSeg...)
	dst = append(dst, p.domainSeg...)
	return dst
}

// removeQueries filters every member of drop out of qs in place,
// preserving order.
func removeQueries(qs []Query, drop map[Query]struct{}) []Query {
	out := qs[:0]
	for _, q := range qs {
		if _, ok := drop[q]; !ok {
			out = append(out, q)
		}
	}
	return out
}

// removeQuery removes the first occurrence of q from qs in place,
// preserving order.
func removeQuery(qs []Query, q Query) []Query {
	for i, have := range qs {
		if have == q {
			return append(qs[:i], qs[i+1:]...)
		}
	}
	return qs
}
