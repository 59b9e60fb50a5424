package core

import (
	"context"
	"math"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// fixture bundles everything a core test needs: a small researcher corpus,
// a search engine, a recognizer chain and a trained domain model for
// RESEARCH.
type fixture struct {
	g      *synth.Generated
	engine *search.Engine
	rec    types.Recognizer
	y      func(*corpus.Page) bool
	dm     *DomainModel
	domain []corpus.EntityID
	target *corpus.Entity
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	idx := search.BuildIndex(g.Corpus.Pages)
	engine := search.NewEngine(idx)
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}

	// First half of the entities are the domain; the target is the last.
	n := g.Corpus.NumEntities()
	var domain []corpus.EntityID
	for i := 0; i < n/2; i++ {
		domain = append(domain, g.Corpus.Entities[i].ID)
	}
	aspect := synth.AspResearch
	y := func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) }

	cfg := DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	dm, err := LearnDomain(cfg, aspect, g.Corpus, domain, y, rec)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		g:      g,
		engine: engine,
		rec:    rec,
		y:      y,
		dm:     dm,
		domain: domain,
		target: g.Corpus.Entities[n-1],
	}
}

func (f *fixture) session(dm *DomainModel) *Session {
	cfg := DefaultConfig()
	cfg.Tokenizer = f.g.Tokenizer
	return NewSession(cfg, f.engine, f.target, synth.AspResearch, f.y, dm, f.rec, 42)
}

// The must* helpers drive a session through its ctx forms over an engine
// that cannot fail: any error fails the test.

func mustBoot(t testing.TB, s *Session) int {
	t.Helper()
	n, err := s.BootstrapCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustStep(t testing.TB, s *Session, sel Selector) (Query, bool) {
	t.Helper()
	q, ok, err := s.StepCtx(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	return q, ok
}

func mustRun(t testing.TB, s *Session, sel Selector, n int) []Query {
	t.Helper()
	fired, err := s.RunCtx(context.Background(), sel, n)
	if err != nil {
		t.Fatal(err)
	}
	return fired
}

// mustFire fires q as if a selector had chosen it: fetch, then ingest.
func mustFire(t testing.TB, s *Session, q Query) int {
	t.Helper()
	res, err := s.FetchQueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return s.Ingest(q, res)
}

func TestQueryTokensRoundTripsPhrases(t *testing.T) {
	f := newFixture(t)
	cfg := DefaultConfig()
	cfg.Tokenizer = f.g.Tokenizer
	toks := cfg.QueryTokens(Query("data mining papers"))
	if len(toks) != 2 || toks[0] != "data mining" || toks[1] != "papers" {
		t.Fatalf("phrase token shattered: %v", toks)
	}
	// Without a tokenizer the fallback splits naively.
	plain := DefaultConfig().QueryTokens(Query("a b"))
	if len(plain) != 2 {
		t.Fatalf("fallback split wrong: %v", plain)
	}
}

func TestLearnDomainProducesTemplates(t *testing.T) {
	f := newFixture(t)
	if len(f.dm.TemplateP()) == 0 {
		t.Fatal("no template utilities learned")
	}
	if len(f.dm.Candidates) == 0 {
		t.Fatal("no domain candidate queries")
	}
	if f.dm.NumPages == 0 || f.dm.NumEntities == 0 {
		t.Fatal("sample bookkeeping empty")
	}
	// The RESEARCH grammar guarantees "〈topic〉 research"-style templates;
	// at least one template containing 〈topic〉 must carry positive
	// precision utility.
	found := false
	for key, p := range f.dm.TemplateP() {
		if p > 0 && containsTopic(key) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no 〈topic〉 template with positive precision")
	}
	// Every template must have both utilities populated.
	for key := range f.dm.TemplateP() {
		if _, ok := f.dm.TemplateR()[key]; !ok {
			t.Fatalf("template %q missing recall", key)
		}
	}
}

func containsTopic(key string) bool {
	tmpl := "〈topic〉"
	for i := 0; i+len(tmpl) <= len(key); i++ {
		if key[i:i+len(tmpl)] == tmpl {
			return true
		}
	}
	return false
}

func TestLearnDomainValidation(t *testing.T) {
	f := newFixture(t)
	cfg := DefaultConfig()
	if _, err := LearnDomain(cfg, synth.AspResearch, f.g.Corpus, nil, f.y, f.rec); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestBootstrapRetrievesOwnPages(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	n := mustBoot(t, s)
	if n == 0 {
		t.Fatal("seed query retrieved nothing")
	}
	for _, p := range s.Pages() {
		if p.Entity != f.target.ID {
			t.Fatalf("seed retrieved foreign page (entity %d)", p.Entity)
		}
	}
	if again := mustBoot(t, s); again != 0 {
		t.Fatal("BootstrapCtx not idempotent")
	}
}

func TestInferBasicUtilities(t *testing.T) {
	f := newFixture(t)
	s := f.session(nil) // no domain model
	mustBoot(t, s)
	inf, err := s.Infer(InferOptions{Utilities: UtilPrecision | UtilRecall})
	if err != nil {
		t.Fatal(err)
	}
	if len(inf.Queries) == 0 {
		t.Fatal("no candidates")
	}
	if len(inf.P) != len(inf.Queries) || len(inf.R) != len(inf.Queries) {
		t.Fatal("utility slices misaligned")
	}
	for i := range inf.Queries {
		if math.IsNaN(inf.P[i]) || math.IsNaN(inf.R[i]) || inf.P[i] < 0 || inf.R[i] < 0 {
			t.Fatalf("bad utility for %q: P=%f R=%f", inf.Queries[i], inf.P[i], inf.R[i])
		}
		if inf.P[i] > 1+1e-9 {
			t.Fatalf("precision above 1 without λ-regularization: %f", inf.P[i])
		}
	}
	if inf.CollP != nil {
		t.Fatal("collective utilities computed without request")
	}
}

func TestInferCollectiveBounds(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	mustBoot(t, s)
	inf, err := s.Infer(InferOptions{UseTemplates: true, UseDomainCandidates: true, Utilities: UtilCollective})
	if err != nil {
		t.Fatal(err)
	}
	if len(inf.CollR) != len(inf.Queries) {
		t.Fatal("collective slices misaligned")
	}
	rPhi := s.RPhi()
	for i := range inf.Queries {
		// Collective recall is a probability and can never fall below
		// the novelty floor R(Φ)·(1−R^(Ỹ)(q)) ≥ 0.
		if inf.CollR[i] < -1e-12 || inf.CollR[i] > 1+1e-12 {
			t.Fatalf("CollR %f outside [0,1]", inf.CollR[i])
		}
		if inf.CollRStar[i] < -1e-12 || inf.CollRStar[i] > 1+1e-12 {
			t.Fatalf("CollRStar %f outside [0,1]", inf.CollRStar[i])
		}
		// Adding a query never loses already-gathered coverage: the
		// candidate that covers nothing still leaves R(Φ) intact.
		if inf.CollR[i] > 0 && inf.CollR[i] < rPhi-1e-9 && inf.CollRStar[i] >= 1 {
			t.Fatalf("CollR %f dropped below R(Φ)=%f", inf.CollR[i], rPhi)
		}
		if inf.CollP[i] < 0 || math.IsNaN(inf.CollP[i]) {
			t.Fatalf("bad CollP %f", inf.CollP[i])
		}
	}
}

func TestDomainCandidatesExtendPool(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	mustBoot(t, s)
	without, _ := s.candidateQueries(false)
	with, _ := s.candidateQueries(true)
	if len(with) <= len(without) {
		t.Fatalf("domain candidates did not extend pool: %d vs %d", len(with), len(without))
	}
}

func TestDomainQueryStrategyNeedsDomain(t *testing.T) {
	f := newFixture(t)
	s := f.session(nil)
	mustBoot(t, s)
	if _, ok := NewPQ().Select(s); ok {
		t.Fatal("P+q selected without a domain model")
	}
}

func TestL2QPDeterministic(t *testing.T) {
	f := newFixture(t)
	a := mustRun(t, f.session(f.dm), NewL2QP(), 3)
	b := mustRun(t, f.session(f.dm), NewL2QP(), 3)
	if len(a) != len(b) {
		t.Fatal("run lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic selection: %v vs %v", a, b)
		}
	}
}

func TestCollectiveStateAdvances(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	mustBoot(t, s)
	before := s.RPhi()
	if _, ok := mustStep(t, s, NewL2QR()); !ok {
		t.Fatal("step failed")
	}
	after := s.RPhi()
	if after < before-1e-12 {
		t.Fatalf("R(Φ) decreased after adding a query: %f → %f", before, after)
	}
}

func TestStepSkipsExhaustedSelector(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	mustBoot(t, s)
	// Exhaust P+q by marking every ranked domain query as fired.
	for _, q := range f.dm.TopQueriesByP(len(f.dm.QueryP())) {
		s.firedSet[q] = struct{}{}
	}
	if _, ok := mustStep(t, s, NewPQ()); ok {
		t.Fatal("exhausted selector still selected")
	}
}

func TestFireTracksContext(t *testing.T) {
	f := newFixture(t)
	s := f.session(f.dm)
	mustBoot(t, s)
	nPages := len(s.Pages())
	mustFire(t, s, Query("parallel computing"))
	if len(s.Fired()) != 1 || s.Fired()[0] != "parallel computing" {
		t.Fatalf("Fired = %v", s.Fired())
	}
	if len(s.Pages()) < nPages {
		t.Fatal("pages shrank")
	}
	if s.SelectionTime() != 0 {
		t.Fatal("firing a chosen query must not account selection time")
	}
}

func TestTopQueriesOrdering(t *testing.T) {
	f := newFixture(t)
	top := f.dm.TopQueriesByP(10)
	if len(top) == 0 {
		t.Fatal("no top queries")
	}
	for i := 1; i < len(top); i++ {
		if f.dm.QueryP()[top[i-1]] < f.dm.QueryP()[top[i]] {
			t.Fatal("TopQueriesByP not sorted")
		}
	}
	topR := f.dm.TopQueriesByR(5)
	if len(topR) > 5 {
		t.Fatal("TopQueriesByR cap ignored")
	}
}
