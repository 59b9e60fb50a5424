package core

import (
	"math"
	"reflect"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// diffFixture is a per-domain fixture for the incremental-vs-reference
// differential tests.
type diffFixture struct {
	g      *synth.Generated
	engine *search.Engine
	rec    types.Recognizer
	aspect corpus.Aspect
	y      func(*corpus.Page) bool
	dm     *DomainModel
	target *corpus.Entity
}

func newDiffFixture(t *testing.T, domain corpus.Domain, aspect corpus.Aspect) *diffFixture {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(domain))
	if err != nil {
		t.Fatal(err)
	}
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}
	y := func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) }

	n := g.Corpus.NumEntities()
	var domainIDs []corpus.EntityID
	for i := 0; i < n/2; i++ {
		domainIDs = append(domainIDs, g.Corpus.Entities[i].ID)
	}
	cfg := DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	dm, err := LearnDomain(cfg, aspect, g.Corpus, domainIDs, y, rec)
	if err != nil {
		t.Fatal(err)
	}
	return &diffFixture{
		g: g, engine: engine, rec: rec, aspect: aspect, y: y, dm: dm,
		target: g.Corpus.Entities[n-1],
	}
}

// diffConfig returns the base config for differential runs: solver
// tolerance tightened so that solve-order differences (the incremental
// graph appends nodes in a different order than a rebuild) stay far below
// the 1e-9 drift budget.
func (f *diffFixture) diffConfig() Config {
	cfg := DefaultConfig()
	cfg.Tokenizer = f.g.Tokenizer
	cfg.SolverTol = 1e-12
	return cfg
}

func (f *diffFixture) sessionWith(cfg Config, dm *DomainModel) *Session {
	return NewSession(cfg, f.engine, f.target, f.aspect, f.y, dm, f.rec, 42)
}

func diffDomains(t *testing.T) map[string]*diffFixture {
	t.Helper()
	return map[string]*diffFixture{
		"researchers": newDiffFixture(t, synth.DomainResearchers, synth.AspResearch),
		"cars":        newDiffFixture(t, synth.DomainCars, synth.AspSafety),
	}
}

// allUtilities is the domain- and context-aware signature with every
// utility family requested explicitly: inference is demand-driven, so a
// parity test that wants P, R and Coll* compared has to ask for all three.
var allUtilities = InferOptions{UseTemplates: true, UseDomainCandidates: true, Utilities: UtilAll}

// inferCases are the InferOptions signatures the §VI-B strategy ablations
// exercise: P/R (basic), P+t/R+t (templates), L2QP/L2QR/L2QBAL
// (templates + collective), plus collective-without-templates for
// completeness.
var inferCases = []struct {
	name string
	opts InferOptions
}{
	{"basic", InferOptions{Utilities: UtilPrecision | UtilRecall}},
	{"templates", InferOptions{UseTemplates: true, UseDomainCandidates: true, Utilities: UtilPrecision | UtilRecall}},
	{"collective", InferOptions{Utilities: UtilAll}},
	{"full", allUtilities},
}

// TestIncrementalMatchesReference drives two identically configured
// sessions in lockstep over several steps — one inferring through Infer
// (persistent pool and graph, warm starts), one through the from-scratch
// InferReference — and holds every utility vector to ≤1e-9 drift and every
// ranking decision to exact equality — for each ablation signature, on
// both domains.
func TestIncrementalMatchesReference(t *testing.T) {
	const steps = 4
	const maxDrift = 1e-9
	for domain, f := range diffDomains(t) {
		for _, tc := range inferCases {
			t.Run(domain+"/"+tc.name, func(t *testing.T) {
				inc := f.sessionWith(f.diffConfig(), f.dm)
				ref := f.sessionWith(f.diffConfig(), f.dm)
				mustBoot(t, inc)
				mustBoot(t, ref)

				for step := 0; step < steps; step++ {
					a, err := inc.Infer(tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					b, err := ref.InferReference(tc.opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a.Queries, b.Queries) {
						t.Fatalf("step %d: candidate pools differ (%d vs %d queries)",
							step, len(a.Queries), len(b.Queries))
					}
					compareVec(t, step, "P", a.P, b.P, maxDrift)
					compareVec(t, step, "R", a.R, b.R, maxDrift)
					compareVec(t, step, "CollR", a.CollR, b.CollR, maxDrift)
					compareVec(t, step, "CollRStar", a.CollRStar, b.CollRStar, maxDrift)
					compareVec(t, step, "CollP", a.CollP, b.CollP, maxDrift)

					// Ranking decisions must agree exactly.
					for _, vals := range [][2][]float64{{a.P, b.P}, {a.R, b.R}, {a.CollP, b.CollP}, {a.CollR, b.CollR}} {
						if vals[0] == nil {
							continue
						}
						ba, bb := a.ArgMax(vals[0]), b.ArgMax(vals[1])
						if ba != bb {
							t.Fatalf("step %d: rankings diverge: incremental picks %q, reference %q",
								step, a.Queries[ba], b.Queries[bb])
						}
					}

					// Fire the reference's top-R choice on both sessions.
					pick := b.Queries[b.ArgMax(b.R)]
					mustFire(t, inc, pick)
					mustFire(t, ref, pick)
				}
			})
		}
	}
}

func compareVec(t *testing.T, step int, name string, a, b []float64, maxDrift float64) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("step %d: %s computed on one path only", step, name)
	}
	if len(a) != len(b) {
		t.Fatalf("step %d: %s lengths differ: %d vs %d", step, name, len(a), len(b))
	}
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > maxDrift || math.IsNaN(d) {
			t.Fatalf("step %d: %s[%d] drift %.3g (incremental %.15f vs reference %.15f)",
				step, name, i, d, a[i], b[i])
		}
	}
}

// referenceRun is Session.RunCtx with every selection made by the
// from-scratch oracle: InferReference under the selector's own
// InferOptions, the arg-max of the selector's own score, fire. P+q and R+q
// rank the domain model's queries without inferring, so they have no
// oracle to differ from and select as shipped.
func referenceRun(t *testing.T, s *Session, sel Selector, n int) []Query {
	t.Helper()
	mustBoot(t, s)
	var fired []Query
	for len(fired) < n {
		var pick Query
		if u, infers := sel.(utilitySelector); infers {
			inf, err := s.InferReference(u.inferOptions())
			if err != nil {
				t.Fatal(err)
			}
			best := inf.argMaxBy(len(inf.Queries), func(i int) float64 { return u.score(inf, i) })
			if best < 0 {
				break
			}
			pick = inf.Queries[best]
		} else {
			choice, ok := sel.Select(s)
			if !ok {
				break
			}
			pick = choice.Query
		}
		mustFire(t, s, pick)
		fired = append(fired, pick)
	}
	return fired
}

// TestIncrementalSelectionsMatchReference runs every §VI strategy end to
// end as shipped and with every selection made by the from-scratch oracle
// (referenceRun), and requires identical fired-query sequences.
func TestIncrementalSelectionsMatchReference(t *testing.T) {
	selectors := []func() Selector{
		NewP, NewR, NewPQ, NewRQ, NewPT, NewRT, NewL2QP, NewL2QR, NewL2QBAL,
	}
	for domain, f := range diffDomains(t) {
		for _, mk := range selectors {
			sel := mk()
			t.Run(domain+"/"+sel.Name(), func(t *testing.T) {
				fired := mustRun(t, f.sessionWith(f.diffConfig(), f.dm), sel, 3)
				want := referenceRun(t, f.sessionWith(f.diffConfig(), f.dm), sel, 3)
				if !reflect.DeepEqual(fired, want) {
					t.Fatalf("fired %v, reference fired %v", fired, want)
				}
				if len(fired) == 0 {
					t.Fatal("no queries fired")
				}
			})
		}
	}
}

// TestIncrementalGraphReuse pins the point of the refactor: across steps
// the session keeps one graph (same builder), only grows it, and detaches
// fired queries rather than rebuilding.
func TestIncrementalGraphReuse(t *testing.T) {
	f := newDiffFixture(t, synth.DomainResearchers, synth.AspResearch)
	cfg := f.diffConfig()
	s := f.sessionWith(cfg, f.dm)
	mustBoot(t, s)
	opts := allUtilities
	if _, err := s.Infer(opts); err != nil {
		t.Fatal(err)
	}
	sg := s.sg
	if sg == nil {
		t.Fatal("no session graph after Infer")
	}
	nodes := sg.b.g.NumNodes()

	inf, err := s.Infer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.sg != sg {
		t.Fatal("second Infer rebuilt the session graph")
	}
	if sg.b.g.NumNodes() != nodes {
		t.Fatalf("no-op Infer grew the graph: %d → %d nodes", nodes, sg.b.g.NumNodes())
	}

	// Fire the top candidate: its vertex must be detached, not the graph
	// rebuilt, and the node count may only grow (new pages/candidates).
	pick := inf.Queries[inf.ArgMax(inf.R)]
	mustFire(t, s, pick)
	if _, err := s.Infer(opts); err != nil {
		t.Fatal(err)
	}
	if s.sg != sg {
		t.Fatal("post-fire Infer rebuilt the session graph")
	}
	if sg.b.g.NumNodes() < nodes {
		t.Fatal("node count shrank")
	}
	qv := &sg.b.qs[s.ordOf(pick)]
	if !qv.detached {
		t.Fatalf("fired query %q not detached", pick)
	}
	if sg.b.g.Degree(qv.node) != 0 {
		t.Fatalf("fired query %q keeps %d edges", pick, sg.b.g.Degree(qv.node))
	}

	// Asking for other utilities on the same signature keeps the graph:
	// the request decides what is solved, not the graph's shape.
	collectiveOnly := opts
	collectiveOnly.Utilities = UtilCollective
	if _, err := s.Infer(collectiveOnly); err != nil {
		t.Fatal(err)
	}
	if s.sg != sg {
		t.Fatal("a different Utilities request rebuilt the session graph")
	}

	// Switching the options signature rebuilds (different graph shape).
	if _, err := s.Infer(InferOptions{}); err != nil {
		t.Fatal(err)
	}
	if s.sg == sg {
		t.Fatal("options switch did not rebuild the session graph")
	}
}

// TestCollectiveBuildsNoGraph pins the table-only form: a session that
// only ever reads the collective family (L2QBAL) builds no graph at all;
// the first request for an individual utility (P+t's) rebuilds it
// graph-backed, exactly once, and answers what the from-scratch oracle
// answers; collective requests after that are served by the graph-backed
// state without another rebuild.
func TestCollectiveBuildsNoGraph(t *testing.T) {
	f := newDiffFixture(t, synth.DomainResearchers, synth.AspResearch)
	s := f.sessionWith(f.diffConfig(), f.dm)
	if fired := mustRun(t, s, NewL2QBAL(), 5); len(fired) != 5 {
		t.Fatalf("fired %d of 5 queries", len(fired))
	}
	table := s.sg
	if table == nil || table.b.g != nil || table.b.pageNode != nil || table.b.templates != nil {
		t.Fatal("five L2QBAL steps built a graph")
	}
	if table.reg.precision != nil || table.prevPrec != nil || table.prevRecall != nil {
		t.Fatal("five L2QBAL steps kept solver state")
	}
	if len(table.b.qs) == 0 || len(table.cover) != len(table.b.qs) {
		t.Fatalf("candidate table has %d entries, %d coverage counts", len(table.b.qs), len(table.cover))
	}

	pt := NewPT().(utilitySelector).inferOptions()
	got, err := s.Infer(pt)
	if err != nil {
		t.Fatal(err)
	}
	backed := s.sg
	if backed == table || backed.b.g == nil || backed.b.g.NumNodes() == 0 {
		t.Fatal("a P+t request did not rebuild the session state graph-backed")
	}
	want, err := s.InferReference(pt)
	if err != nil {
		t.Fatal(err)
	}
	compareInference(t, 5, got, want, 1e-9)
	if _, err := s.Infer(pt); err != nil {
		t.Fatal(err)
	}
	if s.sg != backed {
		t.Fatal("a second P+t request rebuilt again")
	}

	bal := NewL2QBAL().(utilitySelector).inferOptions()
	got, err = s.Infer(bal)
	if err != nil {
		t.Fatal(err)
	}
	if s.sg != backed {
		t.Fatal("an L2QBAL request after P+t rebuilt (downgraded) the session state")
	}
	if want, err = s.InferReference(bal); err != nil {
		t.Fatal(err)
	}
	compareInference(t, 6, got, want, 1e-9)
}

// TestArgMaxSkipsNonFinite is the regression test for the NaN bug: a NaN
// at index 0 used to win every comparison by default.
func TestArgMaxSkipsNonFinite(t *testing.T) {
	inf := &Inference{Queries: []Query{"a", "b", "c", "d"}}
	nan := math.NaN()
	cases := []struct {
		vals []float64
		want int
	}{
		{[]float64{nan, 0.2, 0.7, 0.1}, 2},
		{[]float64{nan, nan, nan, 0.1}, 3},
		{[]float64{math.Inf(1), 0.2, 0.1, 0.0}, 1},
		{[]float64{math.Inf(-1), -0.5, nan, -0.2}, 3},
		{[]float64{nan, nan, nan, nan}, -1},
		{[]float64{0.3, 0.3, 0.1, nan}, 0}, // tie → lexicographic query
		{nil, -1},
	}
	for i, tc := range cases {
		if got := inf.ArgMax(tc.vals); got != tc.want {
			t.Errorf("case %d: ArgMax(%v) = %d, want %d", i, tc.vals, got, tc.want)
		}
	}
}
