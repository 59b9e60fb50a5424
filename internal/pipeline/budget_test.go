package pipeline

import (
	"context"
	"reflect"
	"testing"

	"l2q/internal/core"
)

// cappedSelector delegates to an inner selector but refuses once the
// session has fired cap queries — a deterministic stand-in for an entity
// whose candidate pool runs dry.
type cappedSelector struct {
	inner core.Selector
	cap   int
}

func (c cappedSelector) Name() string { return "capped(" + c.inner.Name() + ")" }
func (c cappedSelector) Select(s *core.Session) (core.Selection, bool) {
	if len(s.Fired()) >= c.cap {
		return core.Selection{}, false
	}
	return c.inner.Select(s)
}

// TestBudgetFixedParity: an explicit fixed-equal policy through the
// long-lived scheduler reproduces the one-shot Run reference exactly.
func TestBudgetFixedParity(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(4)
	const nQueries = 3
	want := sequentialReference(t, f, targets, nQueries)

	s := New(Config{SelectWorkers: 2, FetchWorkers: 4})
	defer s.Close()
	jobs := make([]Job, len(targets))
	sessions := make([]*core.Session, len(targets))
	for i, e := range targets {
		sessions[i] = f.session(e, 0)
		jobs[i] = Job{Session: sessions[i], Selector: core.NewL2QBAL(), NQueries: nQueries}
	}
	b, err := s.Submit(context.Background(), jobs, BatchOptions{Budget: BudgetPolicy{Mode: BudgetFixed}})
	if err != nil {
		t.Fatal(err)
	}
	results := b.Await(context.Background())
	for i := range targets {
		if results[i].Err != nil {
			t.Fatal(results[i].Err)
		}
		if !reflect.DeepEqual(results[i].Fired, want[i].fired) {
			t.Errorf("entity %d fired %v, want %v", i, results[i].Fired, want[i].fired)
		}
	}
}

// adaptiveRun submits one adaptive batch and returns its results plus the
// per-job fired counts and total.
func adaptiveRun(t *testing.T, f *fixture, jobs []Job, policy BudgetPolicy) ([]Result, []int, int) {
	t.Helper()
	s := New(Config{SelectWorkers: 2, FetchWorkers: 4})
	defer s.Close()
	b, err := s.Submit(context.Background(), jobs, BatchOptions{Budget: policy})
	if err != nil {
		t.Fatal(err)
	}
	results := b.Await(context.Background())
	counts := make([]int, len(results))
	total := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		counts[i] = len(r.Fired)
		total += counts[i]
	}
	return results, counts, total
}

// TestBudgetAdaptiveConservation: the adaptive pool never spends more
// than the global budget, and spends all of it while candidates and gain
// remain.
func TestBudgetAdaptiveConservation(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(4)
	jobs := make([]Job, len(targets))
	for i, e := range targets {
		jobs[i] = Job{Session: f.session(e, 0), Selector: core.NewL2QBAL(), NQueries: 2}
	}
	const budget = 8 // = sum of NQueries
	_, _, total := adaptiveRun(t, f, jobs, BudgetPolicy{Mode: BudgetAdaptive})
	if total > budget {
		t.Fatalf("fired %d queries on a budget of %d", total, budget)
	}
	if total == 0 {
		t.Fatal("adaptive mode fired nothing")
	}
}

// TestBudgetAdaptiveDonatesExhausted: an entity whose candidate pool runs
// dry donates its unspent share — the remaining entities harvest beyond
// their equal split, and the refunded grant is re-spent, not lost.
func TestBudgetAdaptiveDonatesExhausted(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(2)
	const budget = 6
	jobs := []Job{
		{Session: f.session(targets[0], 0), Selector: cappedSelector{inner: core.NewL2QBAL(), cap: 1}, NQueries: 3},
		{Session: f.session(targets[1], 0), Selector: core.NewL2QBAL(), NQueries: 3},
	}
	_, counts, total := adaptiveRun(t, f, jobs, BudgetPolicy{Mode: BudgetAdaptive})
	if counts[0] != 1 {
		t.Fatalf("capped entity fired %d, want 1", counts[0])
	}
	if counts[1] <= 3 {
		t.Errorf("uncapped entity fired %d, equal split is 3 — no donation happened", counts[1])
	}
	if total != budget {
		t.Errorf("total fired %d, want the full budget %d (refund lost?)", total, budget)
	}
}

// TestBudgetAdaptiveDeterministic: the round barrier makes adaptive
// allocation reproducible — two identical submissions fire identical
// per-entity sequences regardless of worker interleaving.
func TestBudgetAdaptiveDeterministic(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(4)
	run := func() [][]core.Query {
		jobs := make([]Job, len(targets))
		for i, e := range targets {
			jobs[i] = Job{Session: f.session(e, 0), Selector: core.NewL2QBAL(), NQueries: 3}
		}
		results, _, _ := adaptiveRun(t, f, jobs, BudgetPolicy{Mode: BudgetAdaptive})
		out := make([][]core.Query, len(results))
		for i, r := range results {
			out[i] = r.Fired
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical adaptive runs diverged:\n%v\n%v", a, b)
	}
}

// TestBudgetAdaptiveAtLeastFixed: at the same global budget, adaptive
// allocation achieves at least the fixed-equal allocation's summed
// collective recall ΣR_E(Φ) — the acceptance bar the l2qexp budget bench
// reports on both full domains.
func TestBudgetAdaptiveAtLeastFixed(t *testing.T) {
	f := newFixture(t)
	targets := f.targets(5)
	const nQueries = 3

	sumRPhi := func(policy BudgetPolicy) float64 {
		jobs := make([]Job, len(targets))
		sessions := make([]*core.Session, len(targets))
		for i, e := range targets {
			sessions[i] = f.session(e, 0)
			jobs[i] = Job{Session: sessions[i], Selector: core.NewL2QBAL(), NQueries: nQueries}
		}
		s := New(Config{SelectWorkers: 2, FetchWorkers: 4})
		defer s.Close()
		b, err := s.Submit(context.Background(), jobs, BatchOptions{Budget: policy})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range b.Await(context.Background()) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		sum := 0.0
		for _, sess := range sessions {
			sum += sess.RPhi()
		}
		return sum
	}

	fixed := sumRPhi(BudgetPolicy{Mode: BudgetFixed})
	adaptive := sumRPhi(BudgetPolicy{Mode: BudgetAdaptive})
	if adaptive < fixed-1e-9 {
		t.Errorf("adaptive ΣR_E(Φ) = %.6f < fixed %.6f at the same budget", adaptive, fixed)
	}
}
