package core

import (
	"reflect"
	"slices"
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

// TestLearnDomainMatchesReference: the domain phase over the shared count
// (CountDomain) and the page memo learns a DomainModel exactly equal to
// the retained re-enumerating reference — binary and real-valued
// relevance, both domains, and a sample whose entity IDs repeat
// non-adjacently (e0, e1, …, e0 again: entity-DF then counts by runs of
// each n-gram's pages, as the reference does).
func TestLearnDomainMatchesReference(t *testing.T) {
	type input struct {
		name  string
		f     *domainLearnFixture
		ids   []corpus.EntityID
		score func(*corpus.Page) float64
	}
	var inputs []input
	for domain, f := range domainLearnFixtures(t) {
		inputs = append(inputs,
			input{domain + "/binary", f, f.ids, nil},
			input{domain + "/scored", f, f.ids, f.score})
		if domain == "cars" {
			inputs = append(inputs, input{domain + "/duplicates", f, append(slices.Clone(f.ids), f.ids[0]), nil})
		}
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			f := in.f
			got, err := LearnDomainScored(f.cfg, f.aspect, f.c, in.ids, f.y, in.score, f.rec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := LearnDomainReference(f.cfg, f.aspect, f.c, in.ids, f.y, in.score, f.rec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("domain model differs from the reference")
			}
			if len(got.Candidates) == 0 || len(got.QueryP) == 0 {
				t.Fatal("degenerate domain model (no candidates or query utilities)")
			}
		})
	}
}

// TestLearnDomainHarvestParity is the end-to-end check: a session
// harvesting with the learned model fires exactly the queries of one
// using the reference-learned model.
func TestLearnDomainHarvestParity(t *testing.T) {
	for domain, f := range domainLearnFixtures(t) {
		t.Run(domain, func(t *testing.T) {
			dm, err := LearnDomainScored(f.cfg, f.aspect, f.c, f.ids, f.y, nil, f.rec)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := LearnDomainReference(f.cfg, f.aspect, f.c, f.ids, f.y, nil, f.rec)
			if err != nil {
				t.Fatal(err)
			}
			diff := diffDomains(t)[domain]
			sel := NewL2QBAL()
			fired := mustRun(t, diff.sessionWith(diff.diffConfig(), dm), sel, 3)
			want := mustRun(t, diff.sessionWith(diff.diffConfig(), ref), sel, 3)
			if !reflect.DeepEqual(fired, want) {
				t.Fatalf("learned model fired %v, reference model fired %v", fired, want)
			}
			if len(fired) == 0 {
				t.Fatal("no queries fired")
			}
		})
	}
}
