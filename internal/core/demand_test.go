package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"l2q/internal/corpus"
)

// harvestOutcome is what a harvest is judged by: the queries it fired and
// the pages it gathered, both in order.
type harvestOutcome struct {
	fired []Query
	pages []corpus.PageID
}

// outcome pairs a finished run's fired queries with the pages its session
// gathered.
func outcome(s *Session, fired []Query) harvestOutcome {
	o := harvestOutcome{fired: fired}
	for _, p := range s.Pages() {
		o.pages = append(o.pages, p.ID)
	}
	return o
}

func runOutcome(t testing.TB, s *Session, sel Selector, n int) harvestOutcome {
	return outcome(s, mustRun(t, s, sel, n))
}

// TestDemandDrivenSelectionEquivalence is the bar of demand-driven
// inference: skipping the utility families a strategy does not read
// changes how much is computed, never what is chosen. Every stock
// strategy that infers (RND draws at random; P+q and R+q never call
// Infer) runs 8 steps on both domains three ways — as shipped, asking
// only for what its score reads; with every family requested on every
// step; and with every selection made by the from-scratch InferReference
// (referenceRun) — and must fire the same queries and gather the same
// pages each time.
func TestDemandDrivenSelectionEquivalence(t *testing.T) {
	const steps = 8
	selectors := []Selector{
		NewP(), NewR(), NewPT(), NewRT(), NewL2QP(), NewL2QR(), NewL2QBAL(), NewL2QWeighted(0.7),
	}
	for domain, f := range diffDomains(t) {
		for _, sel := range selectors {
			t.Run(domain+"/"+sel.Name(), func(t *testing.T) {
				everything := sel.(utilitySelector)
				everything.reads = UtilAll

				demand := runOutcome(t, f.sessionWith(f.diffConfig(), f.dm), sel, steps)
				all := runOutcome(t, f.sessionWith(f.diffConfig(), f.dm), everything, steps)
				refSession := f.sessionWith(f.diffConfig(), f.dm)
				ref := outcome(refSession, referenceRun(t, refSession, sel, steps))
				if len(demand.fired) != steps {
					t.Fatalf("fired only %d of %d queries: %v", len(demand.fired), steps, demand.fired)
				}
				if !reflect.DeepEqual(demand, all) {
					t.Errorf("demand-driven fired %v\nall utilities  fired %v", demand.fired, all.fired)
				}
				if !reflect.DeepEqual(demand, ref) && !divergesAtTie(t, f.sessionWith(f.diffConfig(), f.dm), sel.(utilitySelector), demand.fired, ref.fired) {
					t.Errorf("demand-driven fired %q\nInferReference fired %q", demand.fired, ref.fired)
				}
			})
		}
	}
}

// divergesAtTie reports whether two fired sequences part ways at a tie the
// reference itself cannot resolve: replayed on a fresh reference session
// up to the first differing step, the two picks score within 1e-9 of each
// other. Candidates contained in exactly the same pages have equal
// utilities in exact arithmetic; the incremental graph sums its edges in
// another order than a rebuild, so the last bit — and with it ArgMax's
// equality tie-break — may differ (cars/R+t does at step 8, at the parent
// commit too). Anything wider than float noise is a real divergence.
func divergesAtTie(t *testing.T, ref *Session, sel utilitySelector, a, b []Query) bool {
	t.Helper()
	k := 0
	for k < len(a) && k < len(b) && a[k] == b[k] {
		k++
	}
	if k == len(a) || k == len(b) {
		return false
	}
	mustBoot(t, ref)
	for _, q := range a[:k] {
		mustFire(t, ref, q)
	}
	inf, err := ref.InferReference(sel.inferOptions())
	if err != nil {
		t.Fatal(err)
	}
	score := map[Query]float64{}
	for i, q := range inf.Queries {
		score[q] = sel.score(inf, i)
	}
	sa, okA := score[a[k]]
	sb, okB := score[b[k]]
	tie := okA && okB && math.Abs(sa-sb) <= 1e-9
	if tie {
		t.Logf("step %d: %q and %q tie on the reference (%.17g vs %.17g)", k+1, a[k], b[k], sa, sb)
	}
	return tie
}

// TestInferComputesOnlyRequested: for every subset of the utility
// families, on both inference paths, a requested family's vectors are
// parallel to Queries and an unrequested family's are nil.
func TestInferComputesOnlyRequested(t *testing.T) {
	f := newFixture(t)
	for u := Utilities(0); u <= UtilAll; u++ {
		opts := InferOptions{UseTemplates: true, UseDomainCandidates: true, Utilities: u}
		for _, path := range []string{"incremental", "reference"} {
			t.Run(fmt.Sprintf("%03b/%s", u, path), func(t *testing.T) {
				s := f.session(f.dm)
				mustBoot(t, s)
				mustFire(t, s, "parallel computing")
				infer := s.Infer
				if path == "reference" {
					infer = s.InferReference
				}
				inf, err := infer(opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(inf.Queries) == 0 {
					t.Fatal("no candidates")
				}
				check := func(name string, family Utilities, v []float64) {
					switch {
					case u&family == 0 && v != nil:
						t.Errorf("%s computed without being requested", name)
					case u&family != 0 && len(v) != len(inf.Queries):
						t.Errorf("%s has %d entries for %d queries", name, len(v), len(inf.Queries))
					}
				}
				check("P", UtilPrecision, inf.P)
				check("R", UtilRecall, inf.R)
				check("CollR", UtilCollective, inf.CollR)
				check("CollRStar", UtilCollective, inf.CollRStar)
				check("CollP", UtilCollective, inf.CollP)
			})
		}
	}
}

// TestSwitchingRequestsMatchesReference drives one incremental session
// through a schedule no stock strategy produces — the requested families
// change from step to step (collective → individual → collective: the
// table-only state is rebuilt graph-backed by the first solve and then
// serves collective requests as it is, so a family's warm start and the
// page regularization lag several steps behind and must catch up), and the
// options signature changes twice (so the session state is rebuilt
// mid-run, table-only first and graph-backed one step later) — in lockstep
// with an identically configured session that infers through the
// from-scratch InferReference.
func TestSwitchingRequestsMatchesReference(t *testing.T) {
	full := func(u Utilities) InferOptions {
		return InferOptions{UseTemplates: true, UseDomainCandidates: true, Utilities: u}
	}
	schedule := []InferOptions{
		full(UtilCollective), // table-only
		full(UtilCollective),
		full(UtilRecall),     // first solve: rebuilt graph-backed
		full(UtilCollective), // served graph-backed, a step of pages unscored
		full(UtilPrecision | UtilRecall),
		{Utilities: UtilCollective}, // signature switch: rebuilt, table-only
		{Utilities: UtilAll},        // same signature, needs the graph
		full(UtilAll),               // and back
		full(0),                     // ingest only
		full(UtilAll),
	}
	for domain, f := range diffDomains(t) {
		t.Run(domain, func(t *testing.T) {
			inc := f.sessionWith(f.diffConfig(), f.dm)
			ref := f.sessionWith(f.diffConfig(), f.dm)
			mustBoot(t, inc)
			mustBoot(t, ref)
			for step, opts := range schedule {
				a, err := inc.Infer(opts)
				if err != nil {
					t.Fatal(err)
				}
				b, err := ref.InferReference(opts)
				if err != nil {
					t.Fatal(err)
				}
				compareInference(t, step, a, b, 1e-9)
				// Fire the candidate a fixed stride into the pool: the
				// schedule, not a utility, drives this session.
				pick := b.Queries[(7*step+3)%len(b.Queries)]
				mustFire(t, inc, pick)
				mustFire(t, ref, pick)
			}
		})
	}
}

// compareInference holds two inferences to the same candidates, the same
// set of computed families, ≤maxDrift on every value and the same arg-max
// of every family.
func compareInference(t *testing.T, step int, a, b *Inference, maxDrift float64) {
	t.Helper()
	if !reflect.DeepEqual(a.Queries, b.Queries) {
		t.Fatalf("step %d: candidate pools differ (%d vs %d queries)", step, len(a.Queries), len(b.Queries))
	}
	for _, fam := range []struct {
		name string
		a, b []float64
	}{
		{"P", a.P, b.P}, {"R", a.R, b.R},
		{"CollR", a.CollR, b.CollR}, {"CollRStar", a.CollRStar, b.CollRStar}, {"CollP", a.CollP, b.CollP},
	} {
		compareVec(t, step, fam.name, fam.a, fam.b, maxDrift)
		if ba, bb := a.ArgMax(fam.a), b.ArgMax(fam.b); ba != bb {
			t.Fatalf("step %d: %s rankings diverge: %q vs reference %q",
				step, fam.name, a.Queries[ba], b.Queries[bb])
		}
	}
}
