package core

import (
	"reflect"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/corpus"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// domainLearnFixture builds the inputs LearnDomain consumes for one
// domain, without the session machinery of diffFixture.
type domainLearnFixture struct {
	cfg    Config
	aspect corpus.Aspect
	c      *corpus.Corpus
	ids    []corpus.EntityID
	y      func(*corpus.Page) bool
	score  func(*corpus.Page) float64
	rec    types.Recognizer
}

func newDomainLearnFixture(t testing.TB, domain corpus.Domain, aspect corpus.Aspect) *domainLearnFixture {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(domain))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	var ids []corpus.EntityID
	for i := 0; i < g.Corpus.NumEntities()/2; i++ {
		ids = append(ids, g.Corpus.Entities[i].ID)
	}
	y := func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) }
	score := func(p *corpus.Page) float64 { return p.AspectFraction(aspect) }
	return &domainLearnFixture{
		cfg: cfg, aspect: aspect, c: g.Corpus, ids: ids, y: y, score: score,
		rec: types.Chain{g.KB, types.NewRegexRecognizer()},
	}
}

func domainLearnFixtures(t *testing.T) map[string]*domainLearnFixture {
	t.Helper()
	return map[string]*domainLearnFixture{
		"researchers": newDomainLearnFixture(t, synth.DomainResearchers, synth.AspResearch),
		"cars":        newDomainLearnFixture(t, synth.DomainCars, synth.AspSafety),
	}
}

// TestLearnDomainMatchesReference: the sharded counting pass with reused
// per-page enumerations learns a DomainModel exactly equal to the
// retained serial reference — binary and real-valued relevance, both
// domains.
func TestLearnDomainMatchesReference(t *testing.T) {
	for domain, f := range domainLearnFixtures(t) {
		for _, scored := range []bool{false, true} {
			name := domain + "/binary"
			score := (func(*corpus.Page) float64)(nil)
			if scored {
				name = domain + "/scored"
				score = f.score
			}
			t.Run(name, func(t *testing.T) {
				got, err := LearnDomainScored(f.cfg, f.aspect, f.c, f.ids, f.y, score, f.rec)
				if err != nil {
					t.Fatal(err)
				}
				want, err := LearnDomainReference(f.cfg, f.aspect, f.c, f.ids, f.y, score, f.rec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("parallel domain model differs from the serial reference")
				}
				if len(got.Candidates) == 0 || len(got.QueryP) == 0 {
					t.Fatal("degenerate domain model (no candidates or query utilities)")
				}
			})
		}
	}
}

// TestLearnDomainWorkerInvariance: LearnWorkers is a pure performance
// knob — every worker count learns an identical model.
func TestLearnDomainWorkerInvariance(t *testing.T) {
	f := newDomainLearnFixture(t, synth.DomainResearchers, synth.AspResearch)
	learn := func(workers int) *DomainModel {
		cfg := f.cfg
		cfg.LearnWorkers = workers
		dm, err := LearnDomainScored(cfg, f.aspect, f.c, f.ids, f.y, nil, f.rec)
		if err != nil {
			t.Fatal(err)
		}
		return dm
	}
	serial := learn(1)
	for _, w := range []int{2, 3, 8, 64} {
		if par := learn(w); !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d learned a different model than serial", w)
		}
	}
}

// TestLearnDomainDuplicateEntities: duplicate and interleaved entity IDs
// in the domain sample must count entity-DF by page-stream runs exactly
// as the serial reference does (the sharding is run-aligned).
func TestLearnDomainDuplicateEntities(t *testing.T) {
	f := newDomainLearnFixture(t, synth.DomainCars, synth.AspSafety)
	ids := append([]corpus.EntityID{}, f.ids...)
	// e0, e1, e0 again: a repeated, non-adjacent entity.
	ids = append(ids, f.ids[0])
	cfg := f.cfg
	cfg.LearnWorkers = 3
	got, err := LearnDomainScored(cfg, f.aspect, f.c, ids, f.y, nil, f.rec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := LearnDomainReference(cfg, f.aspect, f.c, ids, f.y, nil, f.rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("duplicate-entity sample: parallel model differs from reference")
	}
}

// TestLearnDomainHarvestParity is the end-to-end check the acceptance
// criteria ask for: a session harvesting with the parallel-learned model
// fires exactly the queries of one using the reference-learned model.
func TestLearnDomainHarvestParity(t *testing.T) {
	for domain, f := range domainLearnFixtures(t) {
		t.Run(domain, func(t *testing.T) {
			cfg := f.cfg
			cfg.LearnWorkers = 4
			par, err := LearnDomainScored(cfg, f.aspect, f.c, f.ids, f.y, nil, f.rec)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := LearnDomainReference(cfg, f.aspect, f.c, f.ids, f.y, nil, f.rec)
			if err != nil {
				t.Fatal(err)
			}
			diff := diffDomains(t)[domain]
			sel := NewL2QBAL()
			fired := mustRun(t, diff.sessionWith(diff.diffConfig(), par), sel, 3)
			want := mustRun(t, diff.sessionWith(diff.diffConfig(), ref), sel, 3)
			if !reflect.DeepEqual(fired, want) {
				t.Fatalf("parallel model fired %v, reference model fired %v", fired, want)
			}
			if len(fired) == 0 {
				t.Fatal("no queries fired")
			}
		})
	}
}
