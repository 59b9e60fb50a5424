package webapi

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/harvest"
	"l2q/internal/store"
)

// TestHarvestWarmBoot is the acceptance flow for persisted domain models:
// a backend whose learner was built from a domain artifact plans every
// harvest with the artifact's model itself, never a learned one, and fires
// exactly the queries of a backend that learned the model from scratch.
func TestHarvestWarmBoot(t *testing.T) {
	f := newHarvestFixture(t)
	n := f.g.Corpus.NumEntities()
	targets := []corpus.EntityID{
		f.g.Corpus.Entities[n-2].ID,
		f.g.Corpus.Entities[n-1].ID,
	}
	req := harvest.Request{Entities: targets, Aspect: string(f.aspect), NQueries: 3}

	harvest := func(f *harvestFixture) map[corpus.EntityID][]string {
		t.Helper()
		fired := make(map[corpus.EntityID][]string)
		err := f.client.HarvestBatch(context.Background(), req, func(ev harvest.Event) error {
			if ev.Type == "error" {
				t.Errorf("error event: %+v", ev)
			}
			if ev.Type == "entity" {
				fired[ev.Entity] = ev.Fired
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fired
	}

	// Cold reference: the fixture's backend learns lazily.
	want := harvest(f)

	// Persist the learned model through the real codec and boot a second
	// backend warm from it, through the learner l2qserve boots with.
	var buf bytes.Buffer
	art := &store.DomainArtifact{
		CorpusDomain: f.g.Corpus.Domain,
		NumEntities:  f.g.Corpus.NumEntities(),
		NumPages:     f.g.Corpus.NumPages(),
		Models:       []*core.DomainModel{f.dm},
	}
	if err := store.SaveDomains(&buf, art); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.LoadDomains(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	warm := newHarvestFixture(t)
	hb := warm.server.Harvest
	hb.DomainModel = store.NewDomainLearner(warm.g.Corpus, warm.g.Tokenizer, warm.rec, loaded, nil).Learn
	p, err := hb.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if p.DM != loaded.Models[0] {
		t.Fatalf("warm-booted backend plans with model %p, want the artifact's %p", p.DM, loaded.Models[0])
	}

	got := harvest(warm)
	if len(got) != len(targets) {
		t.Fatalf("warm harvest finished %d of %d entities", len(got), len(targets))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm-booted selections diverge:\n got %v\nwant %v", got, want)
	}
}
