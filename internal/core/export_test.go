package core

import (
	"fmt"
	"reflect"
	"testing"

	"l2q/internal/template"
)

// VerifyCandidateFacts recomputes the facts of every query vertex of the
// session's candidate table — domain candidates and page n-grams alike —
// with no sharing at all: Config.QueryTokens, template.EnumerateKeys and
// the domain model's maps, straight from the query string. It returns an
// error for the first vertex whose stored facts differ. shared counts the
// vertices whose facts are the domain model's own Candidates record and
// memo the page n-grams whose facts are the entry of the table that record
// lives in — the System's — so a caller can tell that sharing happened.
// It exists for the external tests that drive sessions through
// pipeline.Scheduler (which an in-package test cannot import).
func (s *Session) VerifyCandidateFacts() (vertices, shared, memo int, err error) {
	if s.sg == nil {
		return 0, 0, 0, fmt.Errorf("session has no candidate table yet")
	}
	b := s.sg.b
	home, tail := b.dm.tailFacts()
	for i := range b.qs {
		qv := &b.qs[i]
		toks := s.Cfg.QueryTokens(qv.q)
		if !reflect.DeepEqual(qv.toks, toks) {
			return 0, 0, 0, fmt.Errorf("%q: tokens %q, uncached %q", qv.q, qv.toks, toks)
		}
		var keys []string
		if b.rec != nil {
			keys = template.EnumerateKeys(toks, b.rec)
		}
		b.table.mu.Lock()
		stored := b.keysOf(qv)
		b.table.mu.Unlock()
		if !reflect.DeepEqual(stored, keys) {
			return 0, 0, 0, fmt.Errorf("%q: template keys %q, uncached %q", qv.q, stored, keys)
		}
		// The priors as the collective pass used to derive them per step.
		var priorR, priorRStar float64
		if b.dm != nil {
			if v, ok := b.dm.QueryRCount[qv.q]; ok {
				priorR, priorRStar = v, b.dm.QueryRStarCount[qv.q]
			} else {
				n := 0
				for _, key := range keys {
					if v, ok := b.dm.TemplateRCount[key]; ok {
						priorR += v
						priorRStar += b.dm.TemplateRStarCount[key]
						n++
					}
				}
				if n > 0 {
					priorR /= float64(n)
					priorRStar /= float64(n)
				}
			}
		}
		if qv.priorR != priorR || qv.priorRStar != priorRStar {
			return 0, 0, 0, fmt.Errorf("%q: priors (%v, %v), uncached (%v, %v)",
				qv.q, qv.priorR, qv.priorRStar, priorR, priorRStar)
		}
		if home == nil || len(qv.toks) == 0 {
			continue
		}
		if tail[qv.candidateFacts] {
			shared++
		} else if home.holds(qv.candidateFacts) {
			memo++
		}
	}
	return len(b.qs), shared, memo, nil
}

// tailFacts returns the table dm's Candidates record lives in and the
// record's facts; nil for a nil model or one no session has asked yet.
func (dm *DomainModel) tailFacts() (*gramTable, map[*candidateFacts]bool) {
	if dm == nil {
		return nil, nil
	}
	dm.tailMu.Lock()
	defer dm.tailMu.Unlock()
	if dm.tail == nil {
		return nil, nil
	}
	facts := make(map[*candidateFacts]bool, len(dm.tail.facts))
	for _, f := range dm.tail.facts {
		facts[f] = true
	}
	return dm.tail.table, facts
}

// holds reports whether f is the table's entry for its key.
func (t *gramTable) holds(f *candidateFacts) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.cur.get(f.key)
	if g == nil {
		g = t.prev.get(f.key)
	}
	return g == f
}

// MemoEntries is the number of page n-grams — entries other than its own
// Candidates — the System table holds dm's counting priors for.
func (dm *DomainModel) MemoEntries() int {
	t, tail := dm.tailFacts()
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, gen := range []gramMap[*candidateFacts]{t.cur, t.prev} {
		for _, s := range gen.slots {
			if s.val == nil {
				continue
			}
			for _, p := range s.val.priors {
				if p.dm == dm && !tail[s.val] {
					n++
				}
			}
		}
	}
	return n
}

// SharedFacts reports what the sessions built from cfg share: the tables
// in its registry, their vocabularies' terms, the facts entries they hold
// and how many of those carry counting priors for two or more models —
// facts one aspect's session derived and another's reused.
func (c Config) SharedFacts() (tables, terms, entries, acrossModels int) {
	c.grams.mu.Lock()
	defer c.grams.mu.Unlock()
	for _, t := range c.grams.tables {
		terms += t.vocab.Len()
		t.mu.Lock()
		for _, gen := range []gramMap[*candidateFacts]{t.cur, t.prev} {
			for _, s := range gen.slots {
				if s.val == nil {
					continue
				}
				entries++
				if len(s.val.priors) >= 2 {
					acrossModels++
				}
			}
		}
		t.mu.Unlock()
	}
	return len(c.grams.tables), terms, entries, acrossModels
}

// ordOf is the ordinal the session's pool gave q, -1 when it has none.
func (s *Session) ordOf(q Query) int32 {
	f, keyed := s.gt.queryFacts(s.Cfg, q)
	o, ok := s.pool.find(f.key, keyed, q)
	if !ok {
		return -1
	}
	return o
}

// NewFixtureSession builds the in-package fixture once and returns a
// constructor of fresh sessions over its target entity and domain model,
// for the external tests that need a package importing core.
func NewFixtureSession(t *testing.T) func() *Session {
	f := newFixture(t)
	return func() *Session { return f.session(f.dm) }
}
