package baselines

import (
	"reflect"
	"testing"

	"l2q/internal/core"
	"l2q/internal/synth"
)

// TestMethodsWithoutDomainModelIgnoreIt: a method whose row says its
// session runs without the domain model (DomainModel false) fires the same
// queries whether its session is handed one or not — on two target
// entities, five queries each — which is what lets a caller skip learning
// the model for it.
func TestMethodsWithoutDomainModelIgnoreIt(t *testing.T) {
	f := newFixture(t)
	dm, err := core.LearnDomain(f.cfg, synth.AspResearch, f.g.Corpus, f.domain, f.y, f.rec)
	if err != nil {
		t.Fatal(err)
	}
	hr := f.trainHR(t)
	n := f.g.Corpus.NumEntities()
	for _, m := range Methods() {
		if m.DomainModel {
			continue
		}
		for _, target := range f.g.Corpus.Entities[n-2:] {
			var fired [2][]core.Query
			for i, model := range []*core.DomainModel{dm, nil} {
				s := core.NewSession(f.cfg, f.engine, target, synth.AspResearch, f.y, model, f.rec, 7)
				fired[i] = mustRun(t, s, m.New(synth.DomainResearchers, synth.AspResearch, hr), 5)
			}
			if len(fired[0]) == 0 || !reflect.DeepEqual(fired[0], fired[1]) {
				t.Errorf("%s on %q: fires %v with the domain model, %v without", m.Name, target.Name, fired[0], fired[1])
			}
		}
	}
}
