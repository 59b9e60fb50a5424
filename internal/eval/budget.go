package eval

// The budget-allocation experiment. The paper treats queries as the cost
// unit (§I); Endrullis et al. (PAPERS.md) evaluate query generators on
// recall per query spent. This experiment quantifies what the adaptive
// cross-entity budget pool (pipeline.BudgetPolicy) buys over the paper's
// fixed per-entity allocation: harvest the test entities twice at the SAME
// global query budget — once with every entity firing exactly nQueries
// (fixed-equal, the paper's protocol), once with the pooled adaptive
// allocation (saturated entities donate to high-gain ones) — and compare
// the summed collective recall ΣR_E(Φ) plus the actually-gathered
// relevant pages.

import (
	"context"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/pipeline"
)

// BudgetRow is one aspect's fixed-vs-adaptive comparison.
type BudgetRow struct {
	Aspect   string `json:"aspect"`
	Entities int    `json:"entities"`
	// Budget is the shared global query budget of both modes.
	Budget int `json:"budget"`
	// FixedQueries/AdaptiveQueries are the queries actually fired (the
	// adaptive mode may leave budget unspent once every entity is
	// saturated or out of candidates).
	FixedQueries    int `json:"fixedQueries"`
	AdaptiveQueries int `json:"adaptiveQueries"`
	// Summed collective recall ΣR_E(Φ) (the model's own objective).
	FixedSumRPhi    float64 `json:"fixedSumRPhi"`
	AdaptiveSumRPhi float64 `json:"adaptiveSumRPhi"`
	// Relevant pages gathered (classifier-relevant, summed over
	// entities) — the observable counterpart.
	FixedRelPages    int `json:"fixedRelPages"`
	AdaptiveRelPages int `json:"adaptiveRelPages"`
}

// BudgetResult is the whole experiment for one domain.
type BudgetResult struct {
	Domain   string      `json:"domain"`
	NQueries int         `json:"nQueries"`
	Rows     []BudgetRow `json:"rows"`
}

// budgetHarvest runs one allocation mode over the test entities of one
// aspect and tallies the outcome. ctx bounds the scheduled harvests:
// cancellation aborts the batch and surfaces as the per-job error.
func (e *Env) budgetHarvest(ctx context.Context, aspect corpus.Aspect, dm *core.DomainModel,
	nQueries int, policy pipeline.BudgetPolicy) (queries, relPages int, sumRPhi float64, err error) {

	y := e.Cls.YFunc(aspect)
	jobs := make([]pipeline.Job, 0, len(e.TestIDs))
	sessions := make([]*core.Session, 0, len(e.TestIDs))
	for _, id := range e.TestIDs {
		entity := e.G.Corpus.Entity(id)
		s := e.NewSession(entity, aspect, dm, uint64(id)+1)
		jobs = append(jobs, pipeline.Job{Session: s, Selector: core.NewL2QBAL(), NQueries: nQueries})
		sessions = append(sessions, s)
	}
	sched := pipeline.New(pipeline.Config{})
	defer sched.Close()
	b, serr := sched.Submit(ctx, jobs, pipeline.BatchOptions{Budget: policy})
	if serr != nil {
		return 0, 0, 0, serr
	}
	for _, r := range b.Await(ctx) {
		if r.Err != nil {
			return 0, 0, 0, r.Err
		}
		queries += len(r.Fired)
	}
	for _, s := range sessions {
		sumRPhi += s.RPhi()
		for _, p := range s.Pages() {
			if y(p) {
				relPages++
			}
		}
	}
	return queries, relPages, sumRPhi, nil
}

// BudgetComparison runs the fixed-vs-adaptive comparison at a per-entity
// budget of nQueries (≤0: the configured default) across every aspect.
// ctx cancels the underlying harvests between and within aspects.
func (e *Env) BudgetComparison(ctx context.Context, nQueries int) (BudgetResult, error) {
	if nQueries <= 0 {
		nQueries = e.Cfg.NumQueries
	}
	res := BudgetResult{Domain: string(e.Cfg.Domain), NQueries: nQueries}
	for _, aspect := range e.G.Aspects {
		dm, err := e.DomainModel(aspect, -1)
		if err != nil {
			return res, err
		}
		row := BudgetRow{
			Aspect:   string(aspect),
			Entities: len(e.TestIDs),
			Budget:   nQueries * len(e.TestIDs),
		}
		if row.FixedQueries, row.FixedRelPages, row.FixedSumRPhi, err = e.budgetHarvest(
			ctx, aspect, dm, nQueries, pipeline.BudgetPolicy{Mode: pipeline.BudgetFixed}); err != nil {
			return res, err
		}
		if row.AdaptiveQueries, row.AdaptiveRelPages, row.AdaptiveSumRPhi, err = e.budgetHarvest(
			ctx, aspect, dm, nQueries, pipeline.BudgetPolicy{Mode: pipeline.BudgetAdaptive}); err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
