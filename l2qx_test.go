package l2q

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"l2q/internal/core"
	"l2q/internal/store"
)

func testSystem(t *testing.T, d Domain) *System {
	t.Helper()
	sys, err := NewSyntheticSystem(d, SystemOptions{NumEntities: 20, PagesPerEntity: 14, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestUseCRFClassifiers: the CRF family classifies well and harvests, and
// a domain model learned before the swap is not handed out after it: both
// LearnDomain and the harvest backend learn afresh under the CRF's Y.
func TestUseCRFClassifiers(t *testing.T) {
	if testing.Short() {
		t.Skip("CRF training is seconds-scale")
	}
	sys := testSystem(t, Cars)
	aspect := sys.Aspects()[0]
	ids := sys.EntityIDs()[:10]
	nbAcc := sys.ClassifierAccuracy(aspect, sys.Corpus().Pages)
	nbModel, err := sys.LearnDomain(aspect, ids)
	if err != nil {
		t.Fatal(err)
	}
	nbServed, err := sys.HarvestBackend().DomainModel(aspect)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.UseCRFClassifiers(); err != nil {
		t.Fatal(err)
	}
	crfModel, err := sys.LearnDomain(aspect, ids)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.LearnDomain(sys.cfg, aspect, sys.Corpus(), ids, sys.cls.YFunc(aspect), sys.rec)
	if err != nil {
		t.Fatal(err)
	}
	if crfModel == nbModel || !bytes.Equal(domainBytes(t, crfModel), domainBytes(t, want)) {
		t.Error("LearnDomain after the swap did not learn under the CRF classifiers")
	}
	if crfServed, err := sys.HarvestBackend().DomainModel(aspect); err != nil || crfServed == nbServed {
		t.Errorf("the harvest backend after the swap serves %p, %v; want a model learned afresh, not %p", crfServed, err, nbServed)
	}
	crfAcc := sys.ClassifierAccuracy(aspect, sys.Corpus().Pages)
	if crfAcc < 0.9 {
		t.Errorf("CRF accuracy %.3f (NB was %.3f)", crfAcc, nbAcc)
	}
	// Harvesting still works with the swapped family.
	e := sys.Corpus().Entities[0]
	h := sys.NewHarvester(e, aspect, nil)
	if fired := mustRun(t, h, NewP(), 2); len(fired) == 0 {
		t.Error("no queries fired under CRF classifiers")
	}
}

func TestSaveLoadStoreRoundTrip(t *testing.T) {
	sys := testSystem(t, Researchers)
	path := filepath.Join(t.TempDir(), "sys.l2q")
	if err := sys.SaveStore(path); err != nil {
		t.Fatal(err)
	}
	b, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Corpus.NumPages() != sys.Corpus().NumPages() {
		t.Errorf("pages %d, want %d", b.Corpus.NumPages(), sys.Corpus().NumPages())
	}
	if b.Index == nil || b.Index.NumDocs() != sys.Corpus().NumPages() {
		t.Error("index missing or wrong size")
	}
}

func TestSystemCrawl(t *testing.T) {
	sys := testSystem(t, Cars)
	e := sys.Corpus().Entities[0]
	res := sys.Crawl(e, sys.Aspects()[0], 12)
	if res.Fetches == 0 || res.Fetches > 12 {
		t.Errorf("fetches = %d", res.Fetches)
	}
	if len(res.Pages) != res.Fetches {
		t.Errorf("pages %d != fetches %d", len(res.Pages), res.Fetches)
	}
}

func TestRemoteHarvestParity(t *testing.T) {
	sys := testSystem(t, Researchers)
	aspect := sys.Aspects()[0]
	ids := sys.EntityIDs()
	dm, err := sys.LearnDomain(aspect, ids[:10])
	if err != nil {
		t.Fatal(err)
	}
	e := sys.Corpus().Entities[len(ids)-1]

	srv := sys.NewSearchServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	re, err := sys.DialRemoteContext(context.Background(), addr, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	local := sys.NewHarvesterSeeded(e, aspect, dm, 1)
	localFired := mustRun(t, local, NewL2QBAL(), 2)
	remote := sys.NewRemoteHarvester(re, e, aspect, dm)
	remoteFired := mustRun(t, remote, NewL2QBAL(), 2)

	if !reflect.DeepEqual(localFired, remoteFired) {
		t.Errorf("fired %v locally, %v remotely", localFired, remoteFired)
	}
	if re.Metrics().Requests == 0 {
		t.Error("remote harvest issued no HTTP requests")
	}
}

func TestRenderPageHTML(t *testing.T) {
	sys := testSystem(t, Cars)
	doc := RenderPageHTML(sys.Corpus().Pages[0])
	if len(doc) == 0 || doc[0] != '<' {
		t.Errorf("implausible HTML: %.40q", doc)
	}
}

func TestDialRemoteErrors(t *testing.T) {
	sys := testSystem(t, Cars)
	if _, err := sys.DialRemoteContext(context.Background(), "127.0.0.1:1", RemoteOptions{}); err == nil {
		t.Error("dial to a closed port succeeded")
	}
}

func TestLoadStoreMissingFile(t *testing.T) {
	if _, err := LoadStore("/nonexistent/path.l2q"); err == nil {
		t.Error("missing store file accepted")
	}
}

// TestHarvestBackendLearnsTheServingProtocol: System.HarvestBackend writes
// the serving protocol out by hand (the first half of the entities, the
// system's classifiers), and store.DomainLearner is the protocol l2qserve
// and l2qstore share. For every aspect the two must learn models with the
// same DOMS bytes, or a server booted from a System would select
// differently from one booted from a domain artifact.
func TestHarvestBackendLearnsTheServingProtocol(t *testing.T) {
	for _, d := range []Domain{Researchers, Cars} {
		sys := testSystem(t, d)
		backend := sys.HarvestBackend()
		learner := store.NewDomainLearner(sys.Corpus(), sys.Tokenizer(), sys.rec, nil, nil)
		for _, a := range sys.Aspects() {
			got, err := backend.DomainModel(a)
			if err != nil {
				t.Fatal(err)
			}
			want, err := learner.Learn(a)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(domainBytes(t, got), domainBytes(t, want)) {
				t.Errorf("%s/%s: the backend's model differs from the DomainLearner's", d, a)
			}
		}
	}
}

// domainBytes is dm encoded as the one model of a domain artifact.
func domainBytes(t *testing.T, dm *DomainModel) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.SaveDomains(&buf, &DomainArtifact{Models: []*DomainModel{dm}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointThroughFacade exercises the promoted Snapshot/Resume on the
// public Harvester, the checkpoint carried as JSON like the jobs API does.
func TestCheckpointThroughFacade(t *testing.T) {
	sys := testSystem(t, Researchers)
	aspect := sys.Aspects()[0]
	ids := sys.EntityIDs()
	dm, err := sys.LearnDomain(aspect, ids[:10])
	if err != nil {
		t.Fatal(err)
	}
	e := sys.Corpus().Entities[len(ids)-1]

	h := sys.NewHarvesterSeeded(e, aspect, dm, 1)
	mustRun(t, h, NewL2QBAL(), 2)
	cp := jsonCheckpoint(t, h.Snapshot())
	h2 := sys.NewHarvesterSeeded(e, aspect, dm, 1)
	if err := h2.Resume(context.Background(), cp); err != nil {
		t.Fatal(err)
	}
	if len(h2.Pages()) != len(h.Pages()) {
		t.Errorf("resumed pages %d, want %d", len(h2.Pages()), len(h.Pages()))
	}
}

// TestCheckpointPublicRoundTrip: the Harvester's promoted Snapshot/Resume
// round trip through the public surface.
func TestCheckpointPublicRoundTrip(t *testing.T) {
	sys := testSystem(t, Cars)
	aspect := sys.Aspects()[0]
	e := sys.Corpus().Entities[sys.Corpus().NumEntities()-1]

	ref := sys.NewHarvester(e, aspect, nil)
	want := mustRun(t, ref, NewL2QBAL(), 3)

	h := sys.NewHarvester(e, aspect, nil)
	mustRun(t, h, NewL2QBAL(), 1)
	cp := jsonCheckpoint(t, h.Snapshot())
	resumed := sys.NewHarvester(e, aspect, nil)
	if err := resumed.Resume(context.Background(), cp); err != nil {
		t.Fatal(err)
	}
	got := append(append([]Query(nil), cp.Fired...), mustRun(t, resumed, NewL2QBAL(), 2)...)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed fired %v, uninterrupted %v", got, want)
	}
}

// jsonCheckpoint carries a checkpoint through JSON, the form the jobs API
// holds it in (HarvestRequest.Resume, JobStatus.Checkpoints).
func jsonCheckpoint(t *testing.T, cp Checkpoint) Checkpoint {
	t.Helper()
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var out Checkpoint
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// mustRun is RunCtx over an engine that cannot fail: any error fails the
// test.
func mustRun(t testing.TB, s *Harvester, sel Selector, n int) []Query {
	t.Helper()
	fired, err := s.RunCtx(context.Background(), sel, n)
	if err != nil {
		t.Fatal(err)
	}
	return fired
}
