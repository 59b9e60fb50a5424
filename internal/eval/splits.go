package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"l2q/internal/baselines"
	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/par"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// NewEnvs builds n environments over the SAME corpus and index with
// different random entity splits — the paper's protocol repeats the split
// 10 times and averages (§VI-A). Classifiers are retrained per split (they
// must only see the split's domain half); the corpus, index and engine are
// shared, which is what makes multi-split evaluation affordable.
func NewEnvs(cfg Config, n int) ([]*Env, error) {
	if n <= 0 {
		n = 1
	}
	g, err := synth.Generate(synth.Config{
		Domain:         cfg.Domain,
		NumEntities:    cfg.NumEntities,
		PagesPerEntity: cfg.PagesPerEntity,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	cfg.Core.Tokenizer = g.Tokenizer
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))

	// Splits are independent (each trains its own classifiers over its
	// own domain half) and each split's state is fully determined by its
	// seed, so building them concurrently is value-neutral; classifier
	// training inside one split additionally fans out over aspects.
	envs := make([]*Env, n)
	errs := make([]error, n)
	par.For(n, func(i int) {
		envs[i], errs[i] = newEnvFrom(cfg, g, engine, cfg.Seed+uint64(i)*7919)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("eval: split %d: %w", i, err)
		}
	}
	return envs, nil
}

// newEnvFrom wires an Env over shared corpus/engine with one split.
func newEnvFrom(cfg Config, g *synth.Generated, engine *search.Engine, splitSeed uint64) (*Env, error) {
	if cfg.NumQueries <= 0 {
		cfg.NumQueries = 3
	}
	env := &Env{
		Cfg:    cfg,
		G:      g,
		Engine: engine,
		Rec:    types.Chain{g.KB, types.NewRegexRecognizer()},
		models: &modelMemo{
			dms: make(map[dmKey]*core.DomainModel),
			hrs: make(map[corpus.Aspect]*baselines.HRModel),
		},
	}
	n := g.Corpus.NumEntities()
	perm := rand.New(rand.NewPCG(splitSeed, splitSeed^0xdeadbeef)).Perm(n)
	ids := make([]corpus.EntityID, n)
	for i, pi := range perm {
		ids[i] = g.Corpus.Entities[pi].ID
	}
	half := n / 2
	env.DomainIDs = ids[:half]
	rest := ids[half:]
	nv := cfg.NumValidation
	if nv > len(rest) {
		nv = len(rest)
	}
	env.ValIDs = rest[:nv]
	rest = rest[nv:]
	nt := cfg.NumTest
	if nt > len(rest) {
		nt = len(rest)
	}
	env.TestIDs = rest[:nt]
	if len(env.TestIDs) == 0 {
		return nil, fmt.Errorf("eval: no test entities (n=%d)", n)
	}
	var trainPages []*corpus.Page
	for _, id := range env.DomainIDs {
		trainPages = append(trainPages, g.Corpus.PagesOf(id)...)
	}
	env.Cls = classify.TrainSet(g.Aspects, trainPages)
	for _, a := range g.Aspects {
		if _, ok := env.Cls.ByAspect[a]; !ok {
			return nil, fmt.Errorf("eval: no classifier trained for aspect %s", a)
		}
	}
	return env, nil
}

// SplitStats aggregates one method's metric across splits.
type SplitStats struct {
	Method Method
	// Mean and Std are over the per-split mean normalized metrics at
	// the final iteration.
	Mean, Std PRF
	Splits    int
}

// RunMethodOverSplits evaluates a method on every split's test entities
// and returns the across-split mean and standard deviation of the final-
// iteration normalized metrics.
func RunMethodOverSplits(ctx context.Context, envs []*Env, m Method, nQueries, domainSample int) (SplitStats, error) {
	if len(envs) == 0 {
		return SplitStats{}, fmt.Errorf("eval: no splits")
	}
	finals := make([]PRF, 0, len(envs))
	for _, env := range envs {
		r, err := env.RunMethodAllAspects(ctx, m, env.TestIDs, nQueries, domainSample)
		if err != nil {
			return SplitStats{}, err
		}
		finals = append(finals, r.PerIteration[len(r.PerIteration)-1])
	}
	out := SplitStats{Method: m, Splits: len(finals)}
	for _, f := range finals {
		out.Mean.add(f)
	}
	out.Mean.scale(float64(len(finals)))
	var vp, vr, vf float64
	for _, f := range finals {
		vp += (f.P - out.Mean.P) * (f.P - out.Mean.P)
		vr += (f.R - out.Mean.R) * (f.R - out.Mean.R)
		vf += (f.F - out.Mean.F) * (f.F - out.Mean.F)
	}
	n := float64(len(finals))
	out.Std = PRF{P: math.Sqrt(vp / n), R: math.Sqrt(vr / n), F: math.Sqrt(vf / n)}
	return out, nil
}
