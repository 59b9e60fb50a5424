package core

import (
	"strings"
	"sync"

	"l2q/internal/template"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// candidateFacts are the facts about a candidate query that no session
// state can change: they follow from the query string, the tokenizer and
// the recognizer alone. A session's query vertex points at them instead of
// copying them, and every session of one System shares them through its
// gramTable — tokens and template keys once per System, not once per
// aspect model. The domain counting priors also depend on the model, so a
// vertex keeps its own pair and the record caches one pair per model.
type candidateFacts struct {
	q Query
	// toks is Config.QueryTokens(q).
	toks []textproc.Token
	// ids are toks as the table's term ids (the containment test's
	// input); nil on facts built outside a table.
	ids []textproc.TermID
	// key is the gram's key, and ids' storage when toks are the key's own
	// terms.
	key textproc.GramKey

	// The rest is filled lazily, under the owning table's mu (facts built
	// outside a table fill them at construction): keys are the template
	// keys under the table's recognizer (nil without one), priors the
	// counting priors of each model a session asked for.
	keys    []string
	keysSet bool
	priors  []modelPrior
}

// modelPrior is one model's counting priors R_D(q) and R*_D(q).
type modelPrior struct {
	dm       *DomainModel
	r, rStar float64
}

// computeFacts derives a query's facts from scratch, for the domain phase
// and the *Reference oracles, which never touch a table. rec may be nil.
func computeFacts(cfg Config, rec types.Recognizer, q Query) *candidateFacts {
	f := &candidateFacts{q: q, toks: cfg.QueryTokens(q), keysSet: true}
	if rec != nil {
		f.keys = template.EnumerateKeys(f.toks, rec)
	}
	return f
}

// countingPrior returns the probability-scale domain priors R_D(q) and
// R*_D(q) of the collective utilities (§V): the query's own domain
// coverage when it is a transferable domain query, otherwise the mean
// per-instantiation coverage of its templates (keys), zero when the
// domain has seen neither.
func (dm *DomainModel) countingPrior(q Query, keys []string) (priorR, priorRStar float64) {
	if v, ok := dm.QueryRCount[q]; ok {
		return v, dm.QueryRStarCount[q]
	}
	n := 0
	for _, key := range keys {
		if v, ok := dm.TemplateRCount[key]; ok {
			priorR += v
			priorRStar += dm.TemplateRStarCount[key]
			n++
		}
	}
	if n > 0 {
		priorR /= float64(n)
		priorRStar /= float64(n)
	}
	return priorR, priorRStar
}

// gramTables is a Config's registry of gramTables, one per (tokenizer,
// recognizer) its sessions were built with — one for a System.
type gramTables struct {
	mu     sync.Mutex
	tables []*gramTable
}

// gramTable returns the table of cfg's tokenizer and rec,
// creating it on first use. A Config made without DefaultConfig has no
// registry; each of its sessions gets a table of its own.
func (c Config) gramTable(rec types.Recognizer) *gramTable {
	r := c.grams
	if r == nil {
		return newGramTable(c, rec, factsMemoCap)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tables {
		if t.tok == c.Tokenizer && types.Same(t.rec, rec) {
			return t
		}
	}
	t := newGramTable(c, rec, factsMemoCap)
	r.tables = append(r.tables, t)
	return t
}

// gramTable is one System's term vocabulary and its table of n-gram facts,
// keyed by gram key and shared by the sessions of every aspect model: a
// page n-gram met by one aspect's session is never derived again by
// another's (DESIGN.md "One vocabulary"). The table is bounded by two
// generations of at most capacity entries each: a lookup that finds its
// key only in the previous generation promotes it, an insert into a full
// current generation retires the previous one and starts a new current.
// Sessions keep pointers to the facts they hold, so retiring an entry
// never changes a session.
type gramTable struct {
	tok   *textproc.Tokenizer
	rec   types.Recognizer
	vocab *textproc.Vocabulary

	mu        sync.Mutex
	capacity  int
	cur, prev gramMap[*candidateFacts]
}

// factsMemoCap is the capacity of one table generation. A pass over the
// benchmark's job list meets ≈ 56.5 k distinct page n-grams across its
// seven aspect models, so one generation holds a pass and the table at
// most 2 × factsMemoCap entries (DESIGN.md states the bytes).
const factsMemoCap = 65536

func newGramTable(cfg Config, rec types.Recognizer, capacity int) *gramTable {
	return &gramTable{
		tok: cfg.Tokenizer, rec: rec, vocab: textproc.NewVocabulary(Stopwords),
		capacity: capacity,
	}
}

// gramReq asks for the facts of one page n-gram: its key and its tokens
// in the page.
type gramReq struct {
	key  textproc.GramKey
	toks []textproc.Token
}

// resolve sets out[i] to the facts of reqs[i], taking the lock once for
// the lookups and once more for the misses, which are built outside it.
// The grams come from pages a round-tripping tokenizer made (the
// session's fast path), so a gram's tokens are its own page tokens and
// its term ids its key: no re-tokenization. A miss copies the joined
// string and slices the tokens out of the copy, so the table never pins
// page text.
func (t *gramTable) resolve(reqs []gramReq, out []*candidateFacts) {
	var missed []int
	t.mu.Lock()
	for i := range reqs {
		if out[i] = t.lookup(reqs[i].key); out[i] == nil {
			missed = append(missed, i)
		}
	}
	t.mu.Unlock()
	if len(missed) == 0 {
		return
	}
	for _, i := range missed {
		out[i] = gramFacts(reqs[i].key, reqs[i].toks)
	}
	t.mu.Lock()
	for _, i := range missed {
		out[i] = t.insert(out[i])
	}
	t.mu.Unlock()
}

// gramFacts builds the facts of the canonical gram key whose tokens are
// toks: one copied string and the tokens as its substrings.
func gramFacts(key textproc.GramKey, toks []textproc.Token) *candidateFacts {
	q := textproc.JoinQuery(toks)
	if len(toks) == 1 {
		q = strings.Clone(q) // JoinQuery returns a lone token itself
	}
	f := &candidateFacts{q: Query(q), key: key, toks: make([]textproc.Token, len(toks))}
	off := 0
	for j, tok := range toks {
		f.toks[j] = q[off : off+len(tok)]
		off += len(tok) + 1
	}
	f.ids = f.key[:len(toks)]
	return f
}

// queryFacts returns the facts of query q — a domain candidate, a fired
// query, a page n-gram of the session's string path — with canonical
// reporting whether q is the join of its own tokens. Only a canonical
// query has a key (the term ids of its tokens) and goes through the
// table: every page n-gram with q's string and a key has that key. A
// non-canonical one is a private record; the session's pool dedups it by
// string.
func (t *gramTable) queryFacts(cfg Config, q Query) (f *candidateFacts, canonical bool) {
	toks := cfg.QueryTokens(q)
	if len(toks) == 0 || len(toks) > textproc.MaxGramLen || textproc.JoinQuery(toks) != string(q) {
		f = &candidateFacts{q: q, toks: toks}
		f.ids = t.vocab.AppendIDs(nil, toks)
		return f, false
	}
	var ids [textproc.MaxGramLen]textproc.TermID
	key := textproc.GramOf(t.vocab.AppendIDs(ids[:0], toks))
	t.mu.Lock()
	f = t.lookup(key)
	t.mu.Unlock()
	if f != nil {
		return f, true
	}
	f = &candidateFacts{q: q, toks: toks, key: key}
	f.ids = f.key[:len(toks)]
	t.mu.Lock()
	f = t.insert(f)
	t.mu.Unlock()
	return f, true
}

// lookup returns key's facts, promoting a previous-generation hit, or nil.
// The caller holds mu.
func (t *gramTable) lookup(key textproc.GramKey) *candidateFacts {
	if f := t.cur.get(key); f != nil {
		return f
	}
	f := t.prev.get(key)
	if f != nil {
		t.insert(f)
	}
	return f
}

// insert stores f unless another session stored its key first, and
// returns the stored facts, turning the generations over first when the
// current one is full. The caller holds mu.
func (t *gramTable) insert(f *candidateFacts) *candidateFacts {
	if g := t.cur.get(f.key); g != nil {
		return g
	}
	if t.cur.n >= t.capacity {
		t.prev, t.cur = t.cur, gramMap[*candidateFacts]{}
	}
	t.cur.put(f.key, f)
	return f
}

// fillModel completes the facts of a batch of newly enrolled vertices for
// a builder that reads template keys and counting priors (rec and dm; a
// builder without either has nothing to fill): the lock is taken once for
// what earlier sessions filled in and once more for what this batch had to
// compute outside it (the recognizer is caller-supplied code).
func (t *gramTable) fillModel(rec types.Recognizer, dm *DomainModel, qvs []queryVertex) {
	if rec == nil && dm == nil {
		return
	}
	type miss struct {
		i        int
		keysSet  bool
		keys     []string
		r, rStar float64
	}
	var missed []miss
	t.mu.Lock()
	for i := range qvs {
		if !t.fillVertex(dm, &qvs[i]) {
			missed = append(missed, miss{i: i, keysSet: qvs[i].keysSet, keys: qvs[i].keys})
		}
	}
	t.mu.Unlock()
	if len(missed) == 0 {
		return
	}
	for j := range missed {
		m, f := &missed[j], qvs[missed[j].i].candidateFacts // q and toks are immutable
		if !m.keysSet && t.rec != nil {
			m.keys = template.EnumerateKeys(f.toks, t.rec)
		}
		if dm != nil {
			m.r, m.rStar = dm.countingPrior(f.q, m.keys)
		}
	}
	t.mu.Lock()
	for _, m := range missed {
		qv := &qvs[m.i]
		if !qv.keysSet {
			qv.keys, qv.keysSet = m.keys, true
		}
		if !t.fillVertex(dm, qv) {
			qv.priors = append(qv.priors, modelPrior{dm: dm, r: m.r, rStar: m.rStar})
			qv.priorR, qv.priorRStar = m.r, m.rStar
		}
	}
	t.mu.Unlock()
}

// fillVertex copies dm's priors into qv when its facts already hold them
// and reports whether they are complete. The caller holds mu.
func (t *gramTable) fillVertex(dm *DomainModel, qv *queryVertex) bool {
	if !qv.keysSet {
		return false
	}
	if dm == nil {
		return true
	}
	for _, p := range qv.priors {
		if p.dm == dm {
			qv.priorR, qv.priorRStar = p.r, p.rStar
			return true
		}
	}
	return false
}

// domainTail is a DomainModel's Candidates as a session's pool enrolls
// them: each candidate's facts under one table and whether it is
// canonical (see gramTable.queryFacts). It is derived once per model and
// table — DomainModel.tailFor — and never serialised.
type domainTail struct {
	table     *gramTable
	facts     []*candidateFacts
	canonical []bool
	// allCanonical: every candidate has a key, so a pool that has met no
	// non-canonical query can stay on keys alone.
	allCanonical bool
}

// tailFor returns dm's tail under t. The first session builds it and
// every later one over the same table reuses it; a session over another
// table (another System, or a test's own tokenizer) builds one of its own.
func (dm *DomainModel) tailFor(cfg Config, t *gramTable) *domainTail {
	dm.tailMu.Lock()
	defer dm.tailMu.Unlock()
	if dm.tail != nil && dm.tail.table == t {
		return dm.tail
	}
	tail := &domainTail{
		table:        t,
		facts:        make([]*candidateFacts, len(dm.Candidates)),
		canonical:    make([]bool, len(dm.Candidates)),
		allCanonical: true,
	}
	for i, q := range dm.Candidates {
		tail.facts[i], tail.canonical[i] = t.queryFacts(cfg, q)
		tail.allCanonical = tail.allCanonical && tail.canonical[i]
	}
	if dm.tail == nil {
		dm.tail = tail
	}
	return tail
}
