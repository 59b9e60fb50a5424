package eval

import (
	"context"
	"fmt"
)

// R0Grid is the cross-validation grid for the seed-recall anchor (§V-A:
// "we treat it as a parameter r0 ∈ (0,1) ... to be chosen by cross
// validation"). With a domain model present, the binding anchor is the
// seed's Y*-recall r0* (the Y-universe is then sized from the domain's
// aspect frequency), so the sweep tunes Config.R0Star.
var R0Grid = []float64{0.05, 0.08, 0.1, 0.15, 0.25}

// CrossValidateR0 picks the seed anchor maximizing the balanced strategy's
// mean normalized F-score on the validation entities, returning the chosen
// value and the per-candidate scores. Each candidate runs on a copy of the
// Env, so e.Cfg never changes and concurrent runs on e are unaffected.
func (e *Env) CrossValidateR0(ctx context.Context) (float64, map[float64]float64, error) {
	cur := e.Cfg.Core.R0Star
	if len(e.ValIDs) == 0 {
		return cur, nil, fmt.Errorf("eval: no validation entities")
	}
	const n = 3
	scores := make(map[float64]float64, len(R0Grid))
	bestR0, bestF := cur, -1.0
	for _, r0 := range R0Grid {
		cv := *e // shares the corpus, engine, classifiers and model memo
		cv.Cfg.Core.R0Star = r0
		res, err := cv.RunMethodAllAspects(ctx, MethodL2QBAL, e.ValIDs, n, -1)
		if err != nil {
			return cur, scores, err
		}
		f := res.PerIteration[n-1].F
		scores[r0] = f
		if f > bestF {
			bestF, bestR0 = f, r0
		}
	}
	return bestR0, scores, nil
}
