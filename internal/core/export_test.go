package core

import (
	"fmt"
	"reflect"

	"l2q/internal/template"
)

// VerifyCandidateFacts recomputes the facts of every query vertex of the
// session's candidate table — domain candidates and page n-grams alike —
// with no sharing at all: Config.QueryTokens, template.EnumerateKeys and
// the domain model's maps, straight from the query string. It returns an
// error for the first vertex whose stored facts differ. shared counts the
// vertices whose tokens alias the domain model's Candidates table and
// memo those that alias its page-n-gram memo, so a caller can tell that
// sharing happened. It exists for the external tests that drive sessions
// through pipeline.Scheduler (which an in-package test cannot import).
func (s *Session) VerifyCandidateFacts() (vertices, shared, memo int, err error) {
	if s.sg == nil {
		return 0, 0, 0, fmt.Errorf("session has no candidate table yet")
	}
	b := s.sg.b
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
		if !reflect.DeepEqual(qv.keys, keys) {
			return 0, 0, 0, fmt.Errorf("%q: template keys %q, uncached %q", qv.q, qv.keys, keys)
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
		if b.shared == nil || len(qv.toks) == 0 {
			continue
		}
		if f, ok := b.shared.byQuery[qv.q]; ok && &f.toks[0] == &qv.toks[0] {
			shared++
		}
		b.shared.mu.Lock()
		e, ok := b.shared.cur[qv.q]
		if !ok {
			e, ok = b.shared.prev[qv.q]
		}
		b.shared.mu.Unlock()
		if ok && &e.toks[0] == &qv.toks[0] {
			memo++
		}
	}
	return len(b.qs), shared, memo, nil
}

// MemoEntries is the number of page n-grams dm's memo holds.
func (dm *DomainModel) MemoEntries() int {
	dm.sharedMu.Lock()
	sh := dm.shared
	dm.sharedMu.Unlock()
	if sh == nil {
		return 0
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.cur) + len(sh.prev)
}
