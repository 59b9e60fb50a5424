package baselines

import (
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/template"
)

// HRModel carries the domain statistics of the harvest-rate baseline [2]:
// raw counting estimates of how often a template's queries hit relevant
// pages, with no graph inference. Per §VI-C, HR is the only baseline that
// exploits domain data, and its per-query statistic is the average over the
// query's templates.
type HRModel struct {
	// TemplateHR maps template key → relevant-page fraction among the
	// domain pages containing any query the template abstracts.
	TemplateHR map[string]float64
	// Candidates are entity-frequent domain queries (the L2Q domain
	// model's, core.DomainSample.Candidates) so HR can propose unseen
	// queries too.
	Candidates []core.Query
}

// TrainHR computes harvest-rate statistics over a domain sample — the
// domain phase's own count of the same pages — with y materializing
// relevance (classifier output). The sample's recognizer supplies the
// templates.
func TrainHR(s *core.DomainSample, y func(*corpus.Page) bool) *HRModel {
	// Micro-averaged harvest rate per template: Σ rel / Σ total over the
	// queries the template abstracts.
	type acc struct{ rel, tot int }
	tacc := make(map[string]*acc)
	relDF, _ := s.RelDF(y)
	for i, dq := range s.Queries() {
		for _, key := range dq.Keys {
			a := tacc[key]
			if a == nil {
				a = &acc{}
				tacc[key] = a
			}
			a.rel += relDF[i]
			a.tot += dq.PageDF
		}
	}
	m := &HRModel{TemplateHR: make(map[string]float64, len(tacc)), Candidates: s.Candidates()}
	for key, a := range tacc {
		if a.tot > 0 {
			m.TemplateHR[key] = float64(a.rel) / float64(a.tot)
		}
	}
	return m
}

// hrSelector blends the current results' harvest rate with the domain
// template statistic via pseudo-count smoothing:
//
//	score(q) = (rel_PE(q) + m·hr_D(q)) / (tot_PE(q) + m)
//
// where hr_D(q) averages TemplateHR over q's templates and m = 2.
type hrSelector struct {
	model *HRModel
}

// NewHR returns the harvest-rate baseline backed by a trained model.
func NewHR(model *HRModel) core.Selector { return hrSelector{model: model} }

func (hrSelector) Name() string { return "HR" }

const hrPseudoCount = 2.0

func (h hrSelector) Select(s *core.Session) (core.Selection, bool) {
	pages := s.Pages()
	cands := s.Candidates(false)
	seen := make(map[core.Query]struct{}, len(cands))
	for _, q := range cands {
		seen[q] = struct{}{}
	}
	fired := make(map[core.Query]struct{})
	for _, q := range s.Fired() {
		fired[q] = struct{}{}
	}
	for _, q := range h.model.Candidates {
		if _, dup := seen[q]; dup {
			continue
		}
		if _, done := fired[q]; done {
			continue
		}
		cands = append(cands, q)
	}
	if len(cands) == 0 {
		return core.Selection{}, false
	}

	best, bestScore := core.Query(""), -1.0
	for _, q := range cands {
		toks := s.Cfg.QueryTokens(q)
		rel, tot := 0, 0
		for _, p := range pages {
			if p.ContainsQuery(toks) {
				tot++
				if s.Y(p) {
					rel++
				}
			}
		}
		hrD := 0.0
		if s.Rec != nil {
			keys := template.EnumerateKeys(toks, s.Rec)
			n := 0
			for _, key := range keys {
				if v, ok := h.model.TemplateHR[key]; ok {
					hrD += v
					n++
				}
			}
			if n > 0 {
				hrD /= float64(n)
			}
		}
		score := (float64(rel) + hrPseudoCount*hrD) / (float64(tot) + hrPseudoCount)
		if score > bestScore || (score == bestScore && q < best) {
			best, bestScore = q, score
		}
	}
	if best == "" {
		return core.Selection{}, false
	}
	return core.Selection{Query: best}, true
}
