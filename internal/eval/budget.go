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
	"l2q/internal/harvest"
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
// aspect, as the jobs API runs a job (harvest.Plan.Run: one L2QBAL session
// per entity, seeded with its id + 1), and tallies the outcome. ctx bounds
// the scheduled harvests: cancellation aborts the batch and surfaces as the
// per-job error.
func (e *Env) budgetHarvest(ctx context.Context, aspect corpus.Aspect, dm *core.DomainModel,
	nQueries int, policy pipeline.BudgetPolicy) (queries, relPages int, sumRPhi float64, err error) {

	y := e.Cls.YFunc(aspect)
	p := harvest.Plan{Cfg: e.Cfg.Core, Rec: e.Rec, Aspect: aspect, Selector: core.NewL2QBAL(), DM: dm, Y: y,
		Entities: e.TestIDs, NQueries: nQueries, Budget: policy}
	sched := pipeline.New(pipeline.Config{})
	defer sched.Close()
	// Every test entity is in the corpus and none resumes, so every entity
	// runs a job, and a job's failure is its result's.
	results := p.Run(ctx, sched, e.Engine, e.G.Corpus.Entity, func(harvest.Event) {}, nil)
	for _, r := range results {
		if r.Err != nil {
			return 0, 0, 0, r.Err
		}
		queries += len(r.Fired)
		sumRPhi += r.Job.Session.RPhi()
		for _, pg := range r.Job.Session.Pages() {
			if y(pg) {
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
