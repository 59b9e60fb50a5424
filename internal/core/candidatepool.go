package core

import (
	"slices"
	"strings"

	"l2q/internal/textproc"
)

// candidatePool is the candidate table of one harvesting session and its
// entity-phase candidate pool Q_E (§III–§IV-C), maintained incrementally
// across Steps instead of being re-enumerated from every gathered page per
// selection — the pool-side counterpart of sessionGraph:
//
//   - every query the pool ever observes — a page n-gram, a domain
//     candidate, a fired query — gets an ordinal, once: one probe of an
//     integer-keyed index when it appears, ints from then on;
//   - only newly ingested pages are enumerated (pages are immutable and
//     P_E is append-only, so the first-appearance order over the whole
//     page stream is exactly the order the rebuild path produces);
//   - fired queries are retired incrementally — they leave Q_E for good;
//   - domain candidates (§IV-C) form a tail segment in DomainModel order;
//     a domain candidate later observed as a page n-gram migrates into
//     the page segment at its first-appearance position, reproducing the
//     rebuild path's dedup ("page n-grams first") exactly.
//
// A page is enumerated as term ids (corpus.Page.TermIDs, once per page):
// every admissible window is a fixed-width gram key (textproc.
// AppendGramWindows), probed in the index; no string is joined and no
// string is hashed. A gram's string and facts come from the session's
// gramTable, once per new ordinal, in one batch per sync.
//
// A key identifies a string only when the gram is canonical — its tokens
// are the tokenization of its own string — because then two grams with
// one string have one key. A keyCheck under the session's tokenizer
// decides it for a page's grams (a page that tokenizer made, whose grams
// across its paragraph ends the tokenizer makes of their strings), and a
// query is canonical when its tokens join back to it. The first page or
// query that is not puts the pool in string mode for good: from then on
// every new key is also looked up by its string (byQuery), and a second
// key with a known string becomes an alias of its ordinal. Key-path and
// string-mode pools hold identical tables
// (TestCandidatePoolStringModeMatchesReference).
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
	tail      *domainTail  // dm's Candidates under the session's table

	nPages int // prefix of s.pages already enumerated
	nFired int // prefix of s.fired already retired
	// firedOrds is the ordinal of each fired query, parallel to s.fired.
	firedOrds []int32

	// index holds the ordinal + 1 of every gram key observed; qs, facts
	// and state are indexed by ordinal. byQuery, nil on the key path,
	// indexes every ordinal by its string in string mode.
	index   gramMap[int32]
	byQuery map[Query]int32
	qs      []Query
	facts   []*candidateFacts
	state   []candState
	// pageSeg holds the live page-derived ordinals in first-appearance
	// order; domainSeg the live domain candidates (DomainModel order) not
	// subsumed by the page segment. The emitted pool is their
	// concatenation.
	pageSeg   []int32
	domainSeg []int32
	// domainDone records that the domain tail has been enumerated — on
	// the first sync, after the seed pages.
	domainDone bool

	// Sync scratch: the windows of the page being enumerated, and the new
	// ordinals whose facts the sync resolves in one batch at its end.
	wins []textproc.GramWindow
	pend []int32
	reqs []gramReq
	got  []*candidateFacts
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
func newCandidatePool(useDomain bool, dm *DomainModel, tail *domainTail, size int) *candidatePool {
	nDomain := 0
	if dm != nil {
		nDomain = len(dm.Candidates)
	}
	size = max(size, nDomain)
	return &candidatePool{
		useDomain: useDomain,
		dm:        dm,
		tail:      tail,
		index:     newGramMap[int32](size),
		qs:        make([]Query, 0, size),
		facts:     make([]*candidateFacts, 0, size),
		state:     make([]candState, 0, size),
		pageSeg:   make([]int32, 0, size-nDomain),
		domainSeg: make([]int32, 0, nDomain),
	}
}

// matches reports whether the pool was built for this signature.
func (p *candidatePool) matches(useDomain bool, dm *DomainModel) bool {
	return p != nil && p.useDomain == useDomain && p.dm == dm
}

// add gives the query of f the next ordinal, in state st, indexed by key
// when keyed. f may be nil for a page n-gram whose facts the sync resolves
// at its end.
func (p *candidatePool) add(key textproc.GramKey, keyed bool, f *candidateFacts, st candState) int32 {
	o := int32(len(p.qs))
	if keyed {
		p.index.put(key, o+1)
	}
	var q Query
	if f != nil {
		q = f.q
	}
	if p.byQuery != nil {
		p.byQuery[q] = o
	}
	p.qs = append(p.qs, q)
	p.facts = append(p.facts, f)
	p.state = append(p.state, st)
	return o
}

// find returns the ordinal of a query already observed: by key when it
// has one, and by string in string mode.
func (p *candidatePool) find(key textproc.GramKey, keyed bool, q Query) (int32, bool) {
	if keyed {
		if o := p.index.get(key); o != 0 {
			return o - 1, true
		}
	}
	if p.byQuery != nil {
		o, ok := p.byQuery[q]
		return o, ok
	}
	return 0, false
}

// toStrings puts the pool in string mode. Every ordinal so far is
// canonical, so no two of them share a string.
func (p *candidatePool) toStrings(t *gramTable) {
	if p.byQuery != nil {
		return
	}
	p.resolve(t)
	p.byQuery = make(map[Query]int32, cap(p.qs))
	for o, q := range p.qs {
		p.byQuery[q] = int32(o)
	}
}

// resolve fills in the facts and strings of the ordinals the sync added on
// the key path.
func (p *candidatePool) resolve(t *gramTable) {
	if len(p.pend) == 0 {
		return
	}
	p.got = slices.Grow(p.got[:0], len(p.pend))[:len(p.pend)]
	t.resolve(p.reqs, p.got)
	for j, o := range p.pend {
		p.facts[o], p.qs[o] = p.got[j], p.got[j].q
	}
	clear(p.reqs) // page tokens: the scratch must not pin page text
	clear(p.got)
	p.pend, p.reqs = p.pend[:0], p.reqs[:0]
}

// sync brings the pool up to date with the session: retire newly fired
// queries, enumerate newly ingested pages and, on the first sync, the
// domain tail. The per-step work is one index probe per admissible window
// of a new page and one table lookup per new ordinal, plus a compaction
// pass over a segment that lost a member; steady state, only the new
// ordinals allocate.
func (p *candidatePool) sync(s *Session) {
	t := s.gt
	p.syncFired(s)

	migrated := false
	check := keyCheck{tok: s.Cfg.Tokenizer}
	for _, page := range s.pages[p.nPages:] {
		toks := page.Tokens()
		if p.byQuery == nil && !(check.keyed(page) && check.seams(toks, page.ParaEnds())) {
			p.toStrings(t)
		}
		p.wins = textproc.AppendGramWindows(p.wins[:0], page.TermIDs(t.vocab), s.gramCfg)
		for _, w := range p.wins {
			o := p.index.get(w.Key) - 1
			if o < 0 {
				gram := toks[w.Start : int(w.Start)+w.Key.Len()]
				if p.byQuery == nil {
					o = p.add(w.Key, true, nil, candPage)
					p.pend = append(p.pend, o)
					p.reqs = append(p.reqs, gramReq{key: w.Key, toks: gram})
					p.pageSeg = append(p.pageSeg, o)
					continue
				}
				// String mode: the gram's string decides whether it is new.
				f, keyed := t.queryFacts(s.Cfg, Query(strings.Clone(textproc.JoinQuery(gram))))
				var ok bool
				if o, ok = p.find(f.key, keyed, f.q); ok {
					p.index.put(w.Key, o+1)
				} else {
					p.pageSeg = append(p.pageSeg, p.add(w.Key, true, f, candPage))
					continue
				}
			}
			if p.state[o] == candDomain {
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
		if !p.tail.allCanonical {
			p.toStrings(t)
		}
		for i, q := range p.dm.Candidates {
			f, keyed := p.tail.facts[i], p.tail.canonical[i]
			if _, seen := p.find(f.key, keyed, q); !seen {
				p.domainSeg = append(p.domainSeg, p.add(f.key, keyed, f, candDomain))
			}
		}
		p.domainDone = true
	}
	p.resolve(t)
	if migrated {
		p.domainSeg = p.keep(p.domainSeg, candDomain)
	}
	if s.DM != nil {
		s.DM.lastTableSize.Store(int64(len(p.qs)))
	}
}

// syncFired retires the queries fired since the last sync.
func (p *candidatePool) syncFired(s *Session) {
	if len(s.fired) == p.nFired {
		return
	}
	retired := false
	for _, q := range s.fired[p.nFired:] {
		o, added := p.observe(s, q, candFired)
		if !added && p.state[o] != candFired {
			p.state[o] = candFired
			retired = true
		}
		p.firedOrds = append(p.firedOrds, o)
	}
	p.nFired = len(s.fired)
	if retired {
		p.pageSeg = p.keep(p.pageSeg, candPage)
		p.domainSeg = p.keep(p.domainSeg, candDomain)
	}
}

// observe returns the ordinal of query q, giving q the next one in state
// st (added) when the pool has not observed it.
func (p *candidatePool) observe(s *Session, q Query, st candState) (o int32, added bool) {
	t := s.gt
	f, keyed := t.queryFacts(s.Cfg, q)
	if !keyed {
		p.toStrings(t)
	}
	if o, ok := p.find(f.key, keyed, q); ok {
		return o, false
	}
	return p.add(f.key, keyed, f, st), true
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
