// Package baselines implements the four comparison methods of §VI-C:
//
//   - LM: language-feedback-model query selection (Zhai & Lafferty [22]) —
//     the query with maximum likelihood under the most relevant current
//     page's language model.
//   - AQ: adaptive querying (Zerfos et al. [5]) — query statistics adaptive
//     to the current results, computed over relevant pages only (the
//     paper's adaptation, since the original lacks a notion of relevance).
//   - HR: harvest-rate heuristic (Wu et al. [2]) — query statistics from
//     current results and domain data, averaged over templates (the only
//     baseline that exploits domain data, as in the paper).
//   - MQ: manual querying — curated generic queries per (domain, aspect),
//     standing in for the paper's nine-graduate-student user study.
//
// All four implement core.Selector, so they plug into the same harvesting
// session as the L2Q strategies. Methods (methods.go) names them and the
// ten L2Q strategies in one table, the one place a method's name becomes a
// selector.
package baselines

import (
	"math"
	"sort"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/textproc"
)

// ---------------------------------------------------------------------------
// LM — language feedback model.
// ---------------------------------------------------------------------------

// lmSelector chooses the candidate with maximum likelihood under the
// unigram language model of the single most relevant current page (k = 1,
// which the paper found best on its corpora).
type lmSelector struct{}

// NewLM returns the LM baseline.
func NewLM() core.Selector { return lmSelector{} }

func (lmSelector) Name() string { return "LM" }

func (lmSelector) Select(s *core.Session) (core.Selection, bool) {
	pages := s.Pages()
	if len(pages) == 0 {
		return core.Selection{}, false
	}
	// Most relevant current page: first Y-relevant page in retrieval
	// order (earlier retrieval ≈ higher rank); fall back to the first.
	feedback := pages[0]
	for _, p := range pages {
		if s.Y(p) {
			feedback = p
			break
		}
	}
	// Unigram MLE of the feedback page with floor smoothing.
	toks := feedback.Tokens()
	if len(toks) == 0 {
		return core.Selection{}, false
	}
	tf := make(map[textproc.Token]float64, len(toks))
	for _, t := range toks {
		tf[t]++
	}
	n := float64(len(toks))
	logp := func(t textproc.Token) float64 {
		if c := tf[t]; c > 0 {
			return math.Log(c / n)
		}
		return math.Log(0.5 / n)
	}

	cands := s.Candidates(false) // current pages only; LM has no domain
	best, bestScore := core.Query(""), math.Inf(-1)
	for _, q := range cands {
		score := 0.0
		for _, t := range s.Cfg.QueryTokens(q) {
			score += logp(t)
		}
		if score > bestScore || (score == bestScore && q < best) {
			best, bestScore = q, score
		}
	}
	if best == "" {
		return core.Selection{}, false
	}
	return core.Selection{Query: best}, true
}

// ---------------------------------------------------------------------------
// AQ — adaptive querying.
// ---------------------------------------------------------------------------

// aqSelector scores each candidate by its document frequency among the
// *relevant* current result pages — statistics that adapt as results grow.
// No redundancy modeling and no domain data, matching [5] as adapted in
// §VI-C.
type aqSelector struct{}

// NewAQ returns the AQ baseline.
func NewAQ() core.Selector { return aqSelector{} }

func (aqSelector) Name() string { return "AQ" }

func (aqSelector) Select(s *core.Session) (core.Selection, bool) {
	pages := s.Pages()
	var relevant []*corpus.Page
	for _, p := range pages {
		if s.Y(p) {
			relevant = append(relevant, p)
		}
	}
	pool := relevant
	if len(pool) == 0 {
		pool = pages // degenerate start: no relevant pages yet
	}
	cands := s.Candidates(false)
	if len(cands) == 0 {
		return core.Selection{}, false
	}
	best, bestDF := core.Query(""), -1
	for _, q := range cands {
		toks := s.Cfg.QueryTokens(q)
		df := 0
		for _, p := range pool {
			if p.ContainsQuery(toks) {
				df++
			}
		}
		if df > bestDF || (df == bestDF && q < best) {
			best, bestDF = q, df
		}
	}
	if best == "" {
		return core.Selection{}, false
	}
	return core.Selection{Query: best}, true
}

// ---------------------------------------------------------------------------
// MQ — manual querying.
// ---------------------------------------------------------------------------

// mqSelector fires a fixed, human-curated query list in order.
type mqSelector struct {
	queries []core.Query
}

// NewMQ returns a manual-querying baseline over the given ordered list.
func NewMQ(queries []core.Query) core.Selector {
	return mqSelector{queries: queries}
}

// NewMQFor returns the MQ baseline with the built-in curated list for a
// (domain, aspect) pair; see ManualQueries.
func NewMQFor(domain corpus.Domain, aspect corpus.Aspect) core.Selector {
	return mqSelector{queries: ManualQueries(domain, aspect)}
}

func (mqSelector) Name() string { return "MQ" }

func (m mqSelector) Select(s *core.Session) (core.Selection, bool) {
	fired := make(map[core.Query]struct{}, len(s.Fired()))
	for _, q := range s.Fired() {
		fired[q] = struct{}{}
	}
	for _, q := range m.queries {
		if _, done := fired[q]; !done {
			return core.Selection{Query: q}, true
		}
	}
	return core.Selection{}, false
}

// sortQueries sorts a query slice in place and returns it (test helper
// used by HR training too).
func sortQueries(qs []core.Query) []core.Query {
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	return qs
}
