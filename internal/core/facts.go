package core

import (
	"strings"
	"sync"

	"l2q/internal/template"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// candidateFacts are the facts about a candidate query that no session
// state can change: they follow from the query string, the tokenizer, the
// recognizer and the domain model alone. They are stored on the query
// vertex, so a session computes them at most once per candidate instead
// of once per step — and sessions of one domain model share them
// (DomainModel.candidateFactsFor): the model's own Candidates for its
// lifetime, page n-grams for as long as its memo holds them.
type candidateFacts struct {
	// toks is Config.QueryTokens(q).
	toks []textproc.Token
	// keys are the query's template keys (template.EnumerateKeys); nil
	// without a recognizer.
	keys []string
	// priorR and priorRStar are the domain counting priors of the
	// collective utilities (DomainModel.countingPrior); zero without a
	// domain model.
	priorR, priorRStar float64
}

// computeFacts derives a query's candidateFacts from scratch. rec and dm
// may each be nil.
func computeFacts(cfg Config, rec types.Recognizer, dm *DomainModel, q Query) candidateFacts {
	f := candidateFacts{toks: cfg.QueryTokens(q)}
	if rec != nil {
		f.keys = template.EnumerateKeys(f.toks, rec)
	}
	if dm != nil {
		f.priorR, f.priorRStar = dm.countingPrior(q, f.keys)
	}
	return f
}

// factsOf returns q's candidateFacts for the domain phase and the
// reference oracle: the domain model's read-only copy when q is one of its
// Candidates, a fresh computation otherwise — never the memo.
func (b *graphBuilder) factsOf(q Query) candidateFacts {
	if b.shared != nil {
		if f, ok := b.shared.byQuery[q]; ok {
			return f
		}
	}
	return computeFacts(b.cfg, b.rec, b.dm, q)
}

// fillFacts sets the facts of a batch of queries a session has just
// enrolled: through the domain model's shared table, memo included, when
// the session may use it, computed here otherwise.
func (b *graphBuilder) fillFacts(qvs []queryVertex) {
	if b.shared != nil {
		b.shared.fill(b.cfg, b.dm, qvs)
		return
	}
	for i := range qvs {
		qvs[i].candidateFacts = computeFacts(b.cfg, b.rec, b.dm, qvs[i].q)
	}
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

// sharedCandidateFacts is one DomainModel's table of candidateFacts, valid
// for the tokenizer and recognizer it was built with and shared by every
// session over the model. It has two parts. byQuery holds the model's own
// Candidates (≤ Config.MaxDomainCandidates entries), lives as long as the
// model and is read-only once built. The memo holds page n-grams: sessions
// of one model harvest the same aspect of peer entities, so most of the
// n-grams a session meets were met by an earlier one (DESIGN.md "Shared
// candidate facts" has the hit rates). It is bounded by two generations of
// at most capacity entries each: a lookup that finds its query only in the
// previous generation promotes it, an insert into a full current
// generation retires the previous one and starts a new current.
type sharedCandidateFacts struct {
	tok     *textproc.Tokenizer
	rec     types.Recognizer
	byQuery map[Query]candidateFacts

	mu        sync.Mutex
	capacity  int
	cur, prev map[Query]memoEntry
}

// memoEntry is one memoized page n-gram. key is the memo's own copy of
// the query string — the map key of whichever generation holds the entry —
// kept in the value so that promotion never re-keys by a caller's string.
type memoEntry struct {
	key Query
	candidateFacts
}

// factsMemoCap is the capacity of one memo generation. A pass over the
// benchmark's job list meets ≈ 24 k distinct page n-grams per model, so
// one generation holds a pass and the memo at most 2 × factsMemoCap
// entries per model (DESIGN.md states the bytes).
const factsMemoCap = 32768

func newSharedCandidateFacts(cfg Config, rec types.Recognizer, dm *DomainModel, capacity int) *sharedCandidateFacts {
	byQuery := make(map[Query]candidateFacts, len(dm.Candidates))
	for _, q := range dm.Candidates {
		byQuery[q] = computeFacts(cfg, rec, dm, q)
	}
	return &sharedCandidateFacts{
		tok: cfg.Tokenizer, rec: rec, byQuery: byQuery,
		capacity: capacity, cur: make(map[Query]memoEntry),
	}
}

// candidateFactsFor returns the shared candidateFacts of dm under cfg's
// tokenizer and rec. The first caller builds the table; every later caller
// with the same tokenizer and recognizer — every session of one System —
// reuses it. A caller with a different pair gets nil and computes its
// facts per session.
func (dm *DomainModel) candidateFactsFor(cfg Config, rec types.Recognizer) *sharedCandidateFacts {
	dm.sharedMu.Lock()
	defer dm.sharedMu.Unlock()
	if dm.shared == nil {
		dm.shared = newSharedCandidateFacts(cfg, rec, dm, factsMemoCap)
	}
	if dm.shared.tok != cfg.Tokenizer || !types.Same(dm.shared.rec, rec) {
		return nil
	}
	return dm.shared
}

// fill sets the candidateFacts of every vertex of one ingest batch, taking
// the lock once for the lookups and once more for the batch's misses. A
// miss is computed outside the lock (the recognizer is caller-supplied
// code) from a private copy of the query string: a page n-gram may be a
// substring of a parsed page body, and everything computeFacts derives
// aliases at most its input, so the memo never pins page text.
func (sh *sharedCandidateFacts) fill(cfg Config, dm *DomainModel, qvs []queryVertex) {
	var missed []int
	sh.mu.Lock()
	for i := range qvs {
		f, ok := sh.byQuery[qvs[i].q]
		if !ok {
			f, ok = sh.lookup(qvs[i].q)
		}
		if !ok {
			missed = append(missed, i)
			continue
		}
		qvs[i].candidateFacts = f
	}
	sh.mu.Unlock()
	if len(missed) == 0 {
		return
	}
	computed := make([]memoEntry, len(missed))
	for j, i := range missed {
		key := Query(strings.Clone(string(qvs[i].q)))
		computed[j] = memoEntry{key: key, candidateFacts: computeFacts(cfg, sh.rec, dm, key)}
		qvs[i].candidateFacts = computed[j].candidateFacts
	}
	sh.mu.Lock()
	for _, e := range computed {
		sh.insert(e)
	}
	sh.mu.Unlock()
}

// lookup returns q's memoized facts, promoting a previous-generation hit.
// The caller holds mu.
func (sh *sharedCandidateFacts) lookup(q Query) (candidateFacts, bool) {
	if e, ok := sh.cur[q]; ok {
		return e.candidateFacts, true
	}
	e, ok := sh.prev[q]
	if ok {
		sh.insert(e)
	}
	return e.candidateFacts, ok
}

// insert stores e in the current generation, turning the generations over
// first when it is full. The caller holds mu.
func (sh *sharedCandidateFacts) insert(e memoEntry) {
	if len(sh.cur) >= sh.capacity {
		sh.prev, sh.cur = sh.cur, make(map[Query]memoEntry)
	}
	sh.cur[e.key] = e
}
