package baselines

import (
	"fmt"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/template"
	"l2q/internal/types"
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
	// model's, core.DomainCounts.Candidates) so HR can propose unseen
	// queries too.
	Candidates []core.Query
}

// TrainHR computes harvest-rate statistics over the domain entities'
// pages. y materializes relevance (classifier output), rec supplies types
// for template enumeration.
func TrainHR(cfg core.Config, c *corpus.Corpus, domainEntities []corpus.EntityID,
	y func(*corpus.Page) bool, rec types.Recognizer) (*HRModel, error) {

	// The domain phase's own counting pass over the same pages.
	counts, err := core.CountDomain(cfg, c, domainEntities, y)
	if err != nil {
		return nil, fmt.Errorf("baselines: HR training: %w", err)
	}

	// Micro-averaged harvest rate per template: Σ rel / Σ total over the
	// queries the template abstracts.
	type acc struct{ rel, tot int }
	tacc := make(map[string]*acc)
	for q, tot := range counts.PageDF {
		if tot < cfg.MinQueryPageDF {
			continue
		}
		toks := cfg.QueryTokens(core.Query(q))
		for _, key := range template.EnumerateKeys(toks, rec) {
			a := tacc[key]
			if a == nil {
				a = &acc{}
				tacc[key] = a
			}
			a.rel += counts.RelDF[q]
			a.tot += tot
		}
	}
	m := &HRModel{TemplateHR: make(map[string]float64, len(tacc)), Candidates: counts.Candidates(cfg)}
	for key, a := range tacc {
		if a.tot > 0 {
			m.TemplateHR[key] = float64(a.rel) / float64(a.tot)
		}
	}
	return m, nil
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
