package core

import (
	"context"
	"reflect"
	"testing"

	"l2q/internal/synth"
)

// TestCandidatePoolMatchesReference drives incremental sessions through
// several fired queries on both domains and holds the persistent pool to
// exact equality with the rebuild-per-step CandidatesReference at every
// step — for both pool signatures (with and without domain candidates),
// on the SAME session, so any divergence is the pool's own.
func TestCandidatePoolMatchesReference(t *testing.T) {
	const steps = 5
	for domain, f := range diffDomains(t) {
		t.Run(domain, func(t *testing.T) {
			s := f.sessionWith(f.diffConfig(), f.dm)
			mustBoot(t, s)
			for step := 0; step <= steps; step++ {
				for _, useDomain := range []bool{true, false} {
					got := s.Candidates(useDomain)
					want := s.CandidatesReference(useDomain)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d useDomain=%v: pool diverged (%d vs %d candidates)",
							step, useDomain, len(got), len(want))
					}
					if step == 0 && len(got) == 0 {
						t.Fatal("empty candidate pool after bootstrap")
					}
				}
				// Fire the pool's head so every step carries a real delta:
				// one removed query plus the fresh pages it retrieves.
				cands := s.Candidates(true)
				if len(cands) == 0 {
					break
				}
				mustFire(t, s, cands[0])
			}
		})
	}
}

// TestCandidatePoolSignatureSwitch: alternating the useDomain signature
// mid-session rebuilds the pool for the new signature without corrupting
// either view (the same rule sessionGraph applies to InferOptions).
func TestCandidatePoolSignatureSwitch(t *testing.T) {
	f := newDiffFixture(t, synth.DomainResearchers, synth.AspResearch)
	s := f.sessionWith(f.diffConfig(), f.dm)
	mustBoot(t, s)
	for i := 0; i < 3; i++ {
		withDM := s.Candidates(true)
		if want := s.CandidatesReference(true); !reflect.DeepEqual(withDM, want) {
			t.Fatalf("iteration %d: domain pool diverged", i)
		}
		withoutDM := s.Candidates(false)
		if want := s.CandidatesReference(false); !reflect.DeepEqual(withoutDM, want) {
			t.Fatalf("iteration %d: no-domain pool diverged", i)
		}
		if len(withDM) < len(withoutDM) {
			t.Fatalf("iteration %d: domain pool smaller than page pool", i)
		}
		mustFire(t, s, withDM[0])
	}
}

// TestCandidatePoolEmitIsolated: the emitted slice is a snapshot — later
// pool mutations (fires, new pages) must not alias into a slice a caller
// retained, because Inference.Queries holds it across the step.
func TestCandidatePoolEmitIsolated(t *testing.T) {
	f := newDiffFixture(t, synth.DomainResearchers, synth.AspResearch)
	s := f.sessionWith(f.diffConfig(), f.dm)
	mustBoot(t, s)
	before := s.Candidates(true)
	snapshot := append([]Query(nil), before...)
	mustFire(t, s, before[0])
	s.Candidates(true) // sync the pool past the fire
	if !reflect.DeepEqual(before, snapshot) {
		t.Fatal("pool sync mutated a previously emitted candidate slice")
	}
}

// TestCandidatePoolResumeParity: a checkpointed and resumed session
// rebuilds exactly the pool of the uninterrupted session — the resumed
// replay fires through the same ingest machinery the pool syncs against.
func TestCandidatePoolResumeParity(t *testing.T) {
	for domain, f := range diffDomains(t) {
		t.Run(domain, func(t *testing.T) {
			cfg := f.diffConfig()
			live := f.sessionWith(cfg, f.dm)
			mustBoot(t, live)
			for i := 0; i < 3; i++ {
				cands := live.Candidates(true)
				if len(cands) == 0 {
					t.Fatal("pool ran dry")
				}
				mustFire(t, live, cands[i%len(cands)])
			}
			cp := live.Snapshot()

			resumed := f.sessionWith(cfg, f.dm)
			if err := resumed.Resume(context.Background(), cp); err != nil {
				t.Fatal(err)
			}
			for _, useDomain := range []bool{true, false} {
				got := resumed.Candidates(useDomain)
				if want := resumed.CandidatesReference(useDomain); !reflect.DeepEqual(got, want) {
					t.Fatalf("useDomain=%v: resumed pool diverges from its own reference", useDomain)
				}
				if want := live.Candidates(useDomain); !reflect.DeepEqual(got, want) {
					t.Fatalf("useDomain=%v: resumed pool diverges from the uninterrupted session", useDomain)
				}
			}
		})
	}
}

// TestCandidatePoolFiredNeverReappears: once fired, a query stays out of
// the pool even when later pages re-contain it — and a domain candidate
// fired before ever appearing in a page is removed from the domain tail.
func TestCandidatePoolFiredNeverReappears(t *testing.T) {
	f := newDiffFixture(t, synth.DomainResearchers, synth.AspResearch)
	s := f.sessionWith(f.diffConfig(), f.dm)
	mustBoot(t, s)

	cands := s.Candidates(true)
	pageQ := cands[0]
	var domainQ Query
	pageSet := make(map[Query]struct{})
	for _, p := range s.Pages() {
		for _, qs := range p.NGrams(s.ngCfg) {
			pageSet[Query(qs)] = struct{}{}
		}
	}
	for _, q := range s.DM.Candidates {
		if _, onPage := pageSet[q]; !onPage {
			domainQ = q
			break
		}
	}
	mustFire(t, s, pageQ)
	if domainQ != "" {
		mustFire(t, s, domainQ)
	}
	for step := 0; step < 3; step++ {
		cands := s.Candidates(true)
		for _, q := range cands {
			if q == pageQ || (domainQ != "" && q == domainQ) {
				t.Fatalf("step %d: fired query %q reappeared in the pool", step, q)
			}
		}
		if want := s.CandidatesReference(true); !reflect.DeepEqual(cands, want) {
			t.Fatalf("step %d: pool diverged from reference", step)
		}
		if len(cands) == 0 {
			break
		}
		mustFire(t, s, cands[len(cands)/2])
	}
}
