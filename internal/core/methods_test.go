package core_test

import (
	"context"
	"strings"
	"testing"

	"l2q/internal/baselines"
	"l2q/internal/core"
	"l2q/internal/synth"
)

// TestStrategyNames: the method table holds the paper's fourteen methods
// in its order, each row's selector answers to the row's name, the names
// stay unique under case folding, and each row's side inputs are the ones
// its selector reads.
func TestStrategyNames(t *testing.T) {
	want := []string{"RND", "P", "R", "P+q", "R+q", "P+t", "R+t", "L2QP", "L2QR", "L2QBAL", "LM", "AQ", "HR", "MQ"}
	methods := baselines.Methods()
	if len(methods) != len(want) {
		t.Fatalf("%d methods, want %d", len(methods), len(want))
	}
	folded := map[string]bool{}
	for i, m := range methods {
		if m.Name != want[i] {
			t.Errorf("method %d is %q, want %q", i, m.Name, want[i])
		}
		if got := m.New(synth.DomainResearchers, synth.AspResearch, nil).Name(); got != m.Name {
			t.Errorf("%s: Name() = %q", m.Name, got)
		}
		if folded[strings.ToLower(m.Name)] {
			t.Errorf("%s: name repeats under case folding", m.Name)
		}
		folded[strings.ToLower(m.Name)] = true
		if got, ok := baselines.LookupMethod(strings.ToLower(m.Name)); !ok || got.Name != m.Name {
			t.Errorf("LookupMethod(%q) = %q, %v", strings.ToLower(m.Name), got.Name, ok)
		}
		if m.Baseline != (i >= 10) || m.NeedsHR != (m.Name == "HR") {
			t.Errorf("%s: Baseline %v, NeedsHR %v", m.Name, m.Baseline, m.NeedsHR)
		}
		if m.ReadsUtilities && !m.DomainModel {
			t.Errorf("%s reads the domain utilities without a domain model", m.Name)
		}
	}
	if _, ok := baselines.LookupMethod("HODL"); ok {
		t.Error("an unknown name resolved")
	}
}

// TestAllStrategiesRun: every L2Q strategy of the method table fires three
// distinct queries and gathers pages.
func TestAllStrategiesRun(t *testing.T) {
	session := core.NewFixtureSession(t)
	for _, m := range baselines.Methods() {
		if m.Baseline {
			continue
		}
		sel := m.New("", "", nil)
		s := session()
		fired, err := s.RunCtx(context.Background(), sel, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(fired) != 3 {
			t.Errorf("%s fired %d queries, want 3", sel.Name(), len(fired))
			continue
		}
		seen := map[core.Query]struct{}{}
		for _, q := range fired {
			if _, dup := seen[q]; dup {
				t.Errorf("%s fired duplicate query %q", sel.Name(), q)
			}
			seen[q] = struct{}{}
		}
		if len(s.Pages()) == 0 {
			t.Errorf("%s gathered no pages", sel.Name())
		}
	}
}
