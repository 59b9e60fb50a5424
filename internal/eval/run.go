package eval

import (
	"context"
	"fmt"
	"math"

	"l2q/internal/baselines"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/par"
)

// Method identifies a query-selection method under evaluation.
type Method string

// The methods of §VI-B (ablations) and §VI-C (baselines), by the names of
// their rows in baselines.Methods, which RunMethod resolves them through.
const (
	MethodRND    Method = "RND"
	MethodP      Method = "P"
	MethodR      Method = "R"
	MethodPQ     Method = "P+q"
	MethodRQ     Method = "R+q"
	MethodPT     Method = "P+t"
	MethodRT     Method = "R+t"
	MethodL2QP   Method = "L2QP"
	MethodL2QR   Method = "L2QR"
	MethodL2QBAL Method = "L2QBAL"
	MethodLM     Method = "LM"
	MethodAQ     Method = "AQ"
	MethodHR     Method = "HR"
	MethodMQ     Method = "MQ"
)

// RunResult aggregates one method's evaluation for one aspect.
type RunResult struct {
	Method Method
	// PerIteration holds mean normalized P/R/F after 1..n selected
	// queries (index 0 = after the first non-seed query).
	PerIteration []PRF
	// SelectionSecPerQuery is the mean wall-clock selection cost.
	SelectionSecPerQuery float64
	// Entities is how many test entities contributed.
	Entities int
	// PerEntityF holds the final-iteration normalized F-score of every
	// evaluated entity, index-aligned with the entityIDs passed to
	// RunMethod (skipped entities hold NaN). Two RunResults over the same
	// entity list are therefore paired samples for significance testing.
	PerEntityF []float64
}

// toQuery converts a seed string to a core.Query.
func toQuery(s string) core.Query { return core.Query(s) }

// RunMethod evaluates one method on one aspect over the given entities.
// domainSample controls the domain model size (≤0 default, and for
// methods that need a domain model a sample of 0 entities means "no domain
// model at all" — the Fig. 11 zero point). ctx bounds every session's
// retrievals; a canceled run returns its error.
func (e *Env) RunMethod(ctx context.Context, m Method, aspect corpus.Aspect, entityIDs []corpus.EntityID,
	nQueries, domainSample int) (RunResult, error) {

	method, ok := baselines.LookupMethod(string(m))
	if !ok {
		return RunResult{}, fmt.Errorf("eval: unknown method %q", m)
	}
	m = Method(method.Name)
	if nQueries <= 0 {
		nQueries = e.Cfg.NumQueries
	}
	var dm *core.DomainModel
	var hr *baselines.HRModel
	var err error
	// domainSample semantics: <0 default sample, 0 no domain model at all
	// (the Fig. 11 zero point), >0 explicit sample size.
	if method.DomainModel && domainSample != 0 {
		dm, err = e.DomainModel(aspect, domainSample)
		if err == nil && method.ReadsUtilities {
			err = dm.Solve() // before any selection is timed
		}
		if err != nil {
			return RunResult{}, err
		}
	}
	if method.NeedsHR {
		hr, err = e.HRModel(aspect)
		if err != nil {
			return RunResult{}, err
		}
	}
	sel := method.New(e.Cfg.Domain, aspect, hr)

	type perEntity struct {
		prf    []PRF
		selSec float64
		ok     bool
		err    error
	}
	results := make([]perEntity, len(entityIDs))

	par.For(len(entityIDs), func(i int) {
		id := entityIDs[i]
		entity := e.G.Corpus.Entity(id)
		relevant := e.relevantUniverse(entity, aspect)
		if len(relevant) == 0 {
			return // classifier found nothing for this pair; skip
		}
		ideal := e.idealRun(entity, aspect, nQueries)
		rngSeed := uint64(id)*1099511628211 ^ hashString(string(m))
		s := e.NewSession(entity, aspect, dm, rngSeed)

		// Cumulative quality after each selected query; if the
		// selector exhausts its candidates early (MQ after its
		// five), the page set simply stops growing while the
		// ideal keeps improving — exactly the penalty the paper's
		// protocol implies.
		prf := make([]PRF, nQueries)
		fired := 0
		for it := 0; it < nQueries; it++ {
			_, ok, err := s.StepCtx(ctx, sel)
			if err != nil {
				results[i].err = err
				return
			}
			if ok {
				fired++
			}
			prf[it] = normalize(measure(s.Pages(), relevant), ideal[it])
		}
		res := perEntity{prf: prf, ok: true}
		if fired > 0 {
			res.selSec = s.SelectionTime().Seconds() / float64(fired)
		}
		results[i] = res
	})

	out := RunResult{
		Method:       m,
		PerIteration: make([]PRF, nQueries),
		PerEntityF:   make([]float64, len(results)),
	}
	var selSec float64
	for i, r := range results {
		if r.err != nil {
			return RunResult{}, r.err
		}
		if !r.ok {
			out.PerEntityF[i] = math.NaN()
			continue
		}
		out.Entities++
		selSec += r.selSec
		for it := range r.prf {
			out.PerIteration[it].add(r.prf[it])
		}
		out.PerEntityF[i] = r.prf[len(r.prf)-1].F
	}
	if out.Entities == 0 {
		return out, fmt.Errorf("eval: no evaluable entities for %s/%s", m, aspect)
	}
	n := float64(out.Entities)
	for it := range out.PerIteration {
		out.PerIteration[it].scale(n)
	}
	out.SelectionSecPerQuery = selSec / n
	return out, nil
}

// RunMethodAllAspects averages RunMethod across every target aspect.
func (e *Env) RunMethodAllAspects(ctx context.Context, m Method, entityIDs []corpus.EntityID,
	nQueries, domainSample int) (RunResult, error) {

	if nQueries <= 0 {
		nQueries = e.Cfg.NumQueries
	}
	// Warm the per-aspect domain-model cache (and solve the models, for a
	// method that reads the fixpoints) concurrently before the serial
	// aspect loop pays each one on first use.
	if method, ok := baselines.LookupMethod(string(m)); ok && method.DomainModel && domainSample != 0 {
		if err := e.PretrainDomainModels(domainSample, method.ReadsUtilities); err != nil {
			return RunResult{Method: m}, err
		}
	}
	agg := RunResult{Method: m, PerIteration: make([]PRF, nQueries)}
	var selSec float64
	for _, aspect := range e.G.Aspects {
		r, err := e.RunMethod(ctx, m, aspect, entityIDs, nQueries, domainSample)
		if err != nil {
			return agg, err
		}
		for it := range r.PerIteration {
			agg.PerIteration[it].add(r.PerIteration[it])
		}
		selSec += r.SelectionSecPerQuery
		agg.Entities += r.Entities
		// Concatenate per-(entity, aspect) scores; aspect order is fixed,
		// so two methods' vectors stay pairwise aligned.
		agg.PerEntityF = append(agg.PerEntityF, r.PerEntityF...)
	}
	n := float64(len(e.G.Aspects))
	for it := range agg.PerIteration {
		agg.PerIteration[it].scale(n)
	}
	agg.SelectionSecPerQuery = selSec / n
	return agg, nil
}

// hashString is a small FNV-1a for deterministic per-method RNG seeds.
func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
