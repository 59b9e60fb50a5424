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

// modelMemo holds an Env's domain sample of each sample size, which
// memoizes every aspect's domain model over it, and each aspect's HR
// model, trained once. The lock guards the maps only: an HR model trains
// inside its aspect's sync.OnceValues, so a trained aspect never waits on
// another's training.
type modelMemo struct {
	mu      sync.Mutex
	samples map[int]*core.DomainSample
	hrs     map[corpus.Aspect]func() (*baselines.HRModel, error)
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

// domainSample returns (building and caching on first use) the sample of
// the first k domain entities, which every aspect's domain and HR models
// over k entities share.
func (e *Env) domainSample(k int) (*core.DomainSample, error) {
	e.models.mu.Lock()
	defer e.models.mu.Unlock()
	if s, ok := e.models.samples[k]; ok {
		return s, nil
	}
	s, err := core.NewDomainSample(e.Cfg.Core, e.G.Corpus, e.DomainIDs[:min(k, len(e.DomainIDs))], e.Cls.YFunc, e.Rec)
	if err != nil {
		return nil, err
	}
	e.models.samples[k] = s
	return s, nil
}

// DomainModel returns the domain model for an aspect using `sample`
// domain entities (sample ≤ 0 uses the configured default), learned once
// by that sample.
func (e *Env) DomainModel(aspect corpus.Aspect, sample int) (*core.DomainModel, error) {
	if sample <= 0 {
		sample = e.Cfg.DomainSample
	}
	s, err := e.domainSample(sample)
	if err != nil {
		return nil, err
	}
	return s.Model(aspect), nil
}

// PretrainDomainModels learns the domain model of every target aspect up
// front, aspects in parallel, and with solve also runs each model's
// fixpoints — the eval-side mirror of the server's warm boot
// (store.DomainLearner.Artifact), so an all-aspects experiment pays the
// domain phase concurrently instead of serially on each aspect's first
// session. Value-neutral: each model is the one lazy learning returns.
func (e *Env) PretrainDomainModels(sample int, solve bool) error {
	_, err := core.LearnAspects(e.G.Aspects, solve, func(a corpus.Aspect) (*core.DomainModel, error) {
		return e.DomainModel(a, sample)
	})
	return err
}

// HRModel returns the harvest-rate baseline's domain statistics for an
// aspect, trained on the first call for that aspect and memoized: callers
// that arrive while it trains wait for it and get the same model.
func (e *Env) HRModel(aspect corpus.Aspect) (*baselines.HRModel, error) {
	e.models.mu.Lock()
	train, ok := e.models.hrs[aspect]
	if !ok {
		train = sync.OnceValues(func() (*baselines.HRModel, error) {
			s, err := e.domainSample(e.Cfg.DomainSample)
			if err != nil {
				return nil, err
			}
			return baselines.TrainHR(s, e.Cls.YFunc(aspect)), nil
		})
		e.models.hrs[aspect] = train
	}
	e.models.mu.Unlock()
	return train()
}

// NewSession builds a harvesting session for one (entity, aspect) pair
// with classifier-materialized Y, reusing the environment's engine.
func (e *Env) NewSession(entity *corpus.Entity, aspect corpus.Aspect,
	dm *core.DomainModel, rngSeed uint64) *core.Session {

	return core.NewSession(e.Cfg.Core, e.Engine, entity, aspect,
		e.Cls.YFunc(aspect), dm, e.Rec, rngSeed)
}
