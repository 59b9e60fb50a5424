package core

import (
	"sync"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// benchEnv is one domain's benchmark substrate: a synthetic researchers-
// or cars-shaped corpus, engine, domain model, and a fixed 5-step query
// prefix (chosen once by the reference L2QBAL run) so every variant
// measures selection at the same session state — "per-step selection at
// step ≥ 5", the acceptance scenario of the incremental refactor.
type benchEnv struct {
	cfg    Config // one System's: its sessions share a vocabulary and facts table
	g      *synth.Generated
	engine *search.Engine
	rec    types.Recognizer
	aspect corpus.Aspect
	y      func(*corpus.Page) bool
	dm     *DomainModel
	target *corpus.Entity
	prefix []Query
}

var benchEnvs struct {
	sync.Mutex
	byDomain map[corpus.Domain]*benchEnv
}

func benchEnvFor(b *testing.B, domain corpus.Domain, aspect corpus.Aspect) *benchEnv {
	b.Helper()
	benchEnvs.Lock()
	defer benchEnvs.Unlock()
	if e, ok := benchEnvs.byDomain[domain]; ok {
		return e
	}
	cfg := synth.TestConfig(domain)
	cfg.NumEntities = 40
	cfg.PagesPerEntity = 24
	g, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}
	y := func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) }
	var domainIDs []corpus.EntityID
	for i := 0; i < g.Corpus.NumEntities()/2; i++ {
		domainIDs = append(domainIDs, g.Corpus.Entities[i].ID)
	}
	ccfg := DefaultConfig()
	ccfg.Tokenizer = g.Tokenizer
	dm, err := LearnDomain(ccfg, aspect, g.Corpus, domainIDs, y, rec)
	if err != nil {
		b.Fatal(err)
	}
	env := &benchEnv{
		cfg: ccfg, g: g, engine: engine, rec: rec, aspect: aspect, y: y, dm: dm,
		target: g.Corpus.Entities[g.Corpus.NumEntities()-1],
	}
	// The shared 5-query prefix, chosen once so every variant below
	// replays the identical session state.
	env.prefix = mustRun(b, env.session(), NewL2QBAL(), 5)
	if len(env.prefix) < 5 {
		b.Fatalf("prefix run fired only %d queries", len(env.prefix))
	}
	if benchEnvs.byDomain == nil {
		benchEnvs.byDomain = make(map[corpus.Domain]*benchEnv)
	}
	benchEnvs.byDomain[domain] = env
	return env
}

func (e *benchEnv) session() *Session {
	return NewSession(e.cfg, e.engine, e.target, e.aspect, e.y, e.dm, e.rec, 42)
}

// replay brings a fresh session to the post-prefix state. When warm is
// true it also runs an Infer per step, populating the persistent session
// graph, the candidate pool and the warm starts exactly as live harvesting
// would; the from-scratch oracles keep no state, so their arms skip it.
func (e *benchEnv) replay(b *testing.B, opts InferOptions, warm bool) *Session {
	b.Helper()
	s := e.session()
	mustBoot(b, s)
	for _, q := range e.prefix {
		if warm {
			if _, err := s.Infer(opts); err != nil {
				b.Fatal(err)
			}
		}
		mustFire(b, s, q)
	}
	return s
}

var benchDomains = []struct {
	name   string
	domain corpus.Domain
	aspect corpus.Aspect
}{
	{"researchers", synth.DomainResearchers, synth.AspResearch},
	{"cars", synth.DomainCars, synth.AspSafety},
}

// benchRequests keys the inference benchmarks by what a strategy actually
// asks Infer for: L2QBAL (and L2QP/L2QR/L2QW) read the collective family
// only — the headline row, the work harvest_remote does per step — P+t one
// precision solve, R+t one recall solve, and "all" every family, which
// only the differential oracle requests.
var benchRequests = []struct {
	name string
	opts InferOptions
}{
	{"L2QBAL", InferOptions{UseTemplates: true, UseDomainCandidates: true, Utilities: UtilCollective}},
	{"P+t", InferOptions{UseTemplates: true, UseDomainCandidates: true, Utilities: UtilPrecision}},
	{"R+t", InferOptions{UseTemplates: true, UseDomainCandidates: true, Utilities: UtilRecall}},
	{"all", allUtilities},
}

// BenchmarkSessionStep measures one entity-phase inference at step ≥5 of
// a harvesting session — the per-step selection cost §VI-C identifies as
// the CPU-bound half of harvesting — for each benchRequests row. Each
// iteration replays a fresh session through the 5-query prefix (untimed)
// and times exactly one inference with the last fire's page delta still
// pending — the exact state a live step sees. "reference" is
// InferReference: re-enumerate, rebuild the graph, cold-solve; "incremental"
// is Infer on the persistent pool and session graph with warm-started solvers.
func BenchmarkSessionStep(b *testing.B) {
	for _, d := range benchDomains {
		env := benchEnvFor(b, d.domain, d.aspect)
		for _, req := range benchRequests {
			for _, v := range []struct {
				name  string
				warm  bool
				infer func(*Session, InferOptions) (*Inference, error)
			}{
				{"reference", false, (*Session).InferReference},
				{"incremental", true, (*Session).Infer},
			} {
				b.Run(d.name+"/"+req.name+"/"+v.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						s := env.replay(b, req.opts, v.warm)
						b.StartTimer()
						if _, err := v.infer(s, req.opts); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkInfer isolates one steady-state inference (graph fully
// ingested, warm solver — the selector-evaluation hot path of a long
// session) per benchRequests row, InferReference vs Infer, on both
// domains.
func BenchmarkInfer(b *testing.B) {
	for _, d := range benchDomains {
		env := benchEnvFor(b, d.domain, d.aspect)
		for _, req := range benchRequests {
			b.Run(d.name+"/"+req.name+"/reference", func(b *testing.B) {
				s := env.replay(b, req.opts, false)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.InferReference(req.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(d.name+"/"+req.name+"/incremental", func(b *testing.B) {
				s := env.replay(b, req.opts, true)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Infer(req.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCandidateStep measures one candidate-pool generation at step
// ≥5. "reference" is CandidatesReference, which re-enumerates the n-grams
// of every gathered page per call; "incremental" syncs the persistent pool
// against the last fire's pending delta, the exact state a live step sees.
func BenchmarkCandidateStep(b *testing.B) {
	for _, d := range benchDomains {
		env := benchEnvFor(b, d.domain, d.aspect)
		b.Run(d.name+"/reference", func(b *testing.B) {
			s := env.replay(b, InferOptions{}, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(s.CandidatesReference(true)) == 0 {
					b.Fatal("empty pool")
				}
			}
		})
		b.Run(d.name+"/incremental", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := env.session()
				// Warm the pool through the prefix (Candidates per step),
				// leaving the final fire's page delta pending — a live
				// step's exact state.
				mustBoot(b, s)
				for _, q := range env.prefix {
					if len(s.Candidates(true)) == 0 {
						b.Fatal("pool ran dry during replay")
					}
					mustFire(b, s, q)
				}
				b.StartTimer()
				if len(s.Candidates(true)) == 0 {
					b.Fatal("empty pool")
				}
			}
		})
	}
}

// BenchmarkLearnDomain measures the domain phase end to end on both
// domains. Per aspect: "reference" is the retained two-pass
// implementation (count, then re-enumerate for edges, solved eagerly);
// "memo" is LearnDomainScored over a fresh sample, solved. Per domain,
// every aspect from one fresh sample: "system/lazy" learns them and reads
// no fixpoint (what L2Q* needs), "system/solved" also solves each one.
func BenchmarkLearnDomain(b *testing.B) {
	for _, d := range benchDomains {
		env := benchEnvFor(b, d.domain, d.aspect)
		var domainIDs []corpus.EntityID
		for i := 0; i < env.g.Corpus.NumEntities()/2; i++ {
			domainIDs = append(domainIDs, env.g.Corpus.Entities[i].ID)
		}
		cfg := DefaultConfig()
		cfg.Tokenizer = env.g.Tokenizer
		system := func(solve bool) error {
			s, err := NewDomainSample(cfg, env.g.Corpus, domainIDs, groundTruthY, env.rec)
			if err != nil {
				return err
			}
			for _, a := range env.g.Aspects {
				dm := s.Model(a)
				if solve {
					if err := dm.Solve(); err != nil {
						return err
					}
				}
			}
			return nil
		}
		variants := []struct {
			name  string
			learn func() error
		}{
			{"reference", func() error {
				_, err := LearnDomainReference(cfg, env.aspect, env.g.Corpus, domainIDs, env.y, nil, env.rec)
				return err
			}},
			{"memo", func() error {
				dm, err := LearnDomainScored(cfg, env.aspect, env.g.Corpus, domainIDs, env.y, nil, env.rec)
				if err != nil {
					return err
				}
				return dm.Solve()
			}},
			{"system/lazy", func() error { return system(false) }},
			{"system/solved", func() error { return system(true) }},
		}
		for _, v := range variants {
			b.Run(d.name+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := v.learn(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
