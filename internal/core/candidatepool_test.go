package core

import (
	"context"
	"reflect"
	"testing"

	"l2q/internal/synth"
	"l2q/internal/textproc"
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
		for _, qs := range textproc.NGrams(p.Tokens(), s.ngCfg) {
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

	// A query Candidates emitted and Ingest fired before the next
	// Infer has a pool ordinal the session state has not enrolled: the
	// state enrolls it detached — no coverage, no token index — and no
	// inference scores it, in either form.
	for _, opts := range []InferOptions{NewL2QBAL().(utilitySelector).inferOptions(), allUtilities} {
		s := f.sessionWith(f.diffConfig(), f.dm)
		mustBoot(t, s)
		if _, err := s.Infer(opts); err != nil {
			t.Fatal(err)
		}
		enrolled := len(s.sg.b.qs)
		var q Query
		for i := 0; q == "" && i < 10; i++ {
			mustFire(t, s, s.Candidates(true)[i]) // until new n-grams arrive
			for _, c := range s.Candidates(true) {
				if int(s.ordOf(c)) >= enrolled {
					q = c
					break
				}
			}
		}
		if q == "" {
			t.Fatal("ten fires brought no new candidate")
		}
		mustFire(t, s, q)
		got, err := s.Infer(opts)
		if err != nil {
			t.Fatal(err)
		}
		ord := s.ordOf(q)
		if qv := s.sg.b.qs[ord]; qv.q != q || !qv.detached {
			t.Fatalf("%q (ordinal %d) enrolled as %q, detached %v", q, ord, qv.q, qv.detached)
		}
		if s.sg.cover[ord] != (coverage{}) || s.sg.qtokAt[ord] != s.sg.qtokAt[ord+1] {
			t.Fatalf("fired %q was connected: cover %+v", q, s.sg.cover[ord])
		}
		for _, c := range got.Queries {
			if c == q {
				t.Fatalf("fired %q scored", q)
			}
		}
		want, err := s.InferReference(opts)
		if err != nil {
			t.Fatal(err)
		}
		compareInference(t, 0, got, want, 1e-9)
	}
}

// ordinalCheck wraps a selector and, after each of its selections, holds
// the session's candidate table to the ordinal invariant: the pool
// numbered its queries in first-emission order, every emitted candidate's
// ordinal names it, and ordinal i of the pool is b.qs[i] of the session
// state that mirrors it. Drift would score one query with another's
// facts, coverage and vertex.
type ordinalCheck struct {
	Selector
	t     *testing.T
	step  int
	seen  map[Query]bool
	first []Query // every emitted query, in order of first emission
}

func (c *ordinalCheck) Select(s *Session) (Selection, bool) {
	t := c.t
	t.Helper()
	choice, ok := c.Selector.Select(s)
	c.step++
	p := s.pool
	if p == nil {
		return choice, ok // P+q and R+q select without a pool
	}
	if len(s.ordBuf) != len(s.candBuf) {
		t.Fatalf("step %d: %d ordinals for %d candidates", c.step, len(s.ordBuf), len(s.candBuf))
	}
	for i, q := range s.candBuf {
		if o := s.ordBuf[i]; p.qs[o] != q || s.ordOf(q) != o || p.state[o] == candFired {
			t.Fatalf("step %d: candidate %q has ordinal %d, which names %q in state %d", c.step, q, o, p.qs[o], p.state[o])
		}
		if !c.seen[q] {
			c.seen[q] = true
			c.first = append(c.first, q)
		}
	}
	if !reflect.DeepEqual(c.first, p.qs) {
		t.Fatalf("step %d: ordinals are not in first-emission order (%d emitted, %d numbered)", c.step, len(c.first), len(p.qs))
	}
	if sg := s.sg; sg != nil && sg.pool == p {
		if len(sg.b.qs) != len(p.qs) {
			t.Fatalf("step %d: session state enrolled %d of the pool's %d ordinals", c.step, len(sg.b.qs), len(p.qs))
		}
		for i := range sg.b.qs {
			if sg.b.qs[i].q != p.qs[i] {
				t.Fatalf("step %d: ordinal %d is %q in the pool, %q in the session state", c.step, i, p.qs[i], sg.b.qs[i].q)
			}
		}
	}
	for _, q := range s.fired {
		if o := s.ordOf(q); o < 0 || p.state[o] != candFired {
			t.Fatalf("step %d: fired %q not retired in the table", c.step, q)
		}
	}
	return choice, ok
}

// TestCandidateTableOrdinals runs every stock strategy on both domains
// through ordinalCheck, so the ordinal invariant is checked after every
// step.
func TestCandidateTableOrdinals(t *testing.T) {
	selectors := []func() Selector{
		NewRND, NewP, NewR, NewPQ, NewRQ, NewPT, NewRT, NewL2QP, NewL2QR, NewL2QBAL,
	}
	for domain, f := range diffDomains(t) {
		for _, mk := range selectors {
			sel := mk()
			t.Run(domain+"/"+sel.Name(), func(t *testing.T) {
				check := &ordinalCheck{Selector: sel, t: t, seen: map[Query]bool{}}
				if fired := mustRun(t, f.sessionWith(f.diffConfig(), f.dm), check, 6); len(fired) != 6 {
					t.Fatalf("fired %d of 6 queries", len(fired))
				}
			})
		}
	}
}
