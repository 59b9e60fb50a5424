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
// value and the per-candidate scores.
func (e *Env) CrossValidateR0(ctx context.Context) (float64, map[float64]float64, error) {
	if len(e.ValIDs) == 0 {
		return e.Cfg.Core.R0Star, nil, fmt.Errorf("eval: no validation entities")
	}
	const n = 3
	scores := make(map[float64]float64, len(R0Grid))
	bestR0, bestF := e.Cfg.Core.R0Star, -1.0
	saved := e.Cfg.Core.R0Star
	defer func() { e.Cfg.Core.R0Star = saved }()
	for _, r0 := range R0Grid {
		e.Cfg.Core.R0Star = r0
		res, err := e.RunMethodAllAspects(ctx, MethodL2QBAL, e.ValIDs, n, -1)
		if err != nil {
			return saved, scores, err
		}
		f := res.PerIteration[n-1].F
		scores[r0] = f
		if f > bestF {
			bestF, bestR0 = f, r0
		}
	}
	return bestR0, scores, nil
}
