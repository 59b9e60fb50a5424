// Package eval implements the paper's evaluation methodology (§VI-A) and
// the runners that regenerate every figure of the evaluation section:
//
//   - entity splits: half the entities are domain entities, the rest split
//     into validation and test;
//   - the ideal-solution upper bound and normalization of precision,
//     recall and F-score against it;
//   - per-iteration cumulative evaluation of harvested pages;
//   - experiment drivers for Fig. 9 (classifiers), Fig. 10 (domain/context
//     ablation), Fig. 11 (domain size), Fig. 12 (precision/recall vs.
//     baselines), Fig. 13 (F-score) and Fig. 14 (time cost).
package eval

import (
	"sync"

	"l2q/internal/baselines"
	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/par"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// Config scales one experimental environment. Defaults follow the paper
// where affordable; every knob exists so unit tests run in milliseconds.
type Config struct {
	Domain         corpus.Domain
	NumEntities    int
	PagesPerEntity int
	Seed           uint64

	// DomainSample caps how many domain-half entities feed the domain
	// reinforcement graph (the full half is used for classifier training
	// and HR statistics admission; the graph is the expensive part).
	DomainSample int
	// NumTest and NumValidation pick target entities from the non-domain
	// half.
	NumTest       int
	NumValidation int
	// NumQueries is the maximum harvesting iterations (paper: 2–5).
	NumQueries int

	Core core.Config
}

// DefaultConfig returns the experiment-scale configuration for a domain:
// paper-scale corpus sizes with a tractable domain-graph sample.
func DefaultConfig(domain corpus.Domain) Config {
	gen := synth.DefaultConfig(domain)
	return Config{
		Domain:         domain,
		NumEntities:    gen.NumEntities,
		PagesPerEntity: gen.PagesPerEntity,
		Seed:           gen.Seed,
		DomainSample:   60,
		NumTest:        36,
		NumValidation:  12,
		NumQueries:     5,
		Core:           core.DefaultConfig(),
	}
}

// TestConfig returns a miniature environment for unit tests.
func TestConfig(domain corpus.Domain) Config {
	return Config{
		Domain:         domain,
		NumEntities:    24,
		PagesPerEntity: 16,
		Seed:           7,
		DomainSample:   8,
		NumTest:        4,
		NumValidation:  2,
		NumQueries:     3,
		Core:           core.DefaultConfig(),
	}
}

// Env is a fully materialized experimental environment: corpus, retrieval
// engine, aspect classifiers, type system, splits, and lazily built domain
// models. Env methods are safe for concurrent use after construction.
type Env struct {
	Cfg    Config
	G      *synth.Generated
	Engine *search.Engine
	Cls    *classify.Set
	Rec    types.Recognizer

	DomainIDs []corpus.EntityID // domain half
	ValIDs    []corpus.EntityID
	TestIDs   []corpus.EntityID

	// models memoizes the learned models. It sits behind a pointer so a
	// copy of the Env with other session settings (CrossValidateR0's)
	// shares it: neither model reads those settings.
	models *modelMemo
}

// modelMemo holds an Env's learned domain and HR models.
type modelMemo struct {
	mu  sync.Mutex
	dms map[dmKey]*core.DomainModel
	hrs map[corpus.Aspect]*baselines.HRModel
}

type dmKey struct {
	aspect corpus.Aspect
	sample int // domain entities used (for the Fig. 11 sweep)
}

// NewEnv generates the corpus, builds the index, trains the classifiers on
// the domain half, and draws the entity splits (§VI-A "Evaluation
// methodology": half the entities are domain entities, the rest split into
// validation and test). For the paper's repeated-split protocol use
// NewEnvs.
func NewEnv(cfg Config) (*Env, error) {
	envs, err := NewEnvs(cfg, 1)
	if err != nil {
		return nil, err
	}
	return envs[0], nil
}

// domainSampleIDs returns the first k domain entities (deterministic).
func (e *Env) domainSampleIDs(k int) []corpus.EntityID {
	if k > len(e.DomainIDs) {
		k = len(e.DomainIDs)
	}
	return e.DomainIDs[:k]
}

// DomainModel returns (building and caching on first use) the domain model
// for an aspect using `sample` domain entities; sample ≤ 0 uses the
// configured default.
func (e *Env) DomainModel(aspect corpus.Aspect, sample int) (*core.DomainModel, error) {
	if sample <= 0 {
		sample = e.Cfg.DomainSample
	}
	key := dmKey{aspect: aspect, sample: sample}
	e.models.mu.Lock()
	dm, ok := e.models.dms[key]
	e.models.mu.Unlock()
	if ok {
		return dm, nil
	}
	dm, err := core.LearnDomain(e.Cfg.Core, aspect, e.G.Corpus,
		e.domainSampleIDs(sample), e.Cls.YFunc(aspect), e.Rec)
	if err != nil {
		return nil, err
	}
	e.models.mu.Lock()
	e.models.dms[key] = dm
	e.models.mu.Unlock()
	return dm, nil
}

// PretrainDomainModels learns (and caches) the domain model of every
// target aspect up front, aspects in parallel — the eval-side mirror of
// the server's warm boot (store.DomainLearner.Artifact), so an
// all-aspects experiment pays the domain phase concurrently instead of
// serially on each aspect's first session. Value-neutral: each model is
// byte-identical to the one lazy learning would build.
func (e *Env) PretrainDomainModels(sample int) error {
	aspects := e.G.Aspects
	errs := make([]error, len(aspects))
	par.For(len(aspects), func(i int) {
		_, errs[i] = e.DomainModel(aspects[i], sample)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// HRModel returns (building and caching on first use) the harvest-rate
// baseline's domain statistics for an aspect.
func (e *Env) HRModel(aspect corpus.Aspect) (*baselines.HRModel, error) {
	e.models.mu.Lock()
	m, ok := e.models.hrs[aspect]
	e.models.mu.Unlock()
	if ok {
		return m, nil
	}
	m, err := baselines.TrainHR(e.Cfg.Core, e.G.Corpus,
		e.domainSampleIDs(e.Cfg.DomainSample), e.Cls.YFunc(aspect), e.Rec)
	if err != nil {
		return nil, err
	}
	e.models.mu.Lock()
	e.models.hrs[aspect] = m
	e.models.mu.Unlock()
	return m, nil
}

// NewSession builds a harvesting session for one (entity, aspect) pair
// with classifier-materialized Y, reusing the environment's engine.
func (e *Env) NewSession(entity *corpus.Entity, aspect corpus.Aspect,
	dm *core.DomainModel, rngSeed uint64) *core.Session {

	return core.NewSession(e.Cfg.Core, e.Engine, entity, aspect,
		e.Cls.YFunc(aspect), dm, e.Rec, rngSeed)
}
