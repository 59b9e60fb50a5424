package pipeline

// The scheduler soak smoke: submit/cancel/resume churn against one
// long-lived scheduler under -race. Scheduler state transitions are
// order-sensitive by nature (admission, round barriers, cancellation
// racing workers), so beyond the targeted unit tests the CI runs this
// churn loop for 30 s (L2Q_SOAK=30s); the default keeps it to a moment so
// the normal suite exercises the same paths cheaply.

import (
	"context"
	"math/rand/v2"
	"os"
	"sync"
	"testing"
	"time"

	"l2q/internal/core"
)

func soakDuration() time.Duration {
	if v := os.Getenv("L2Q_SOAK"); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
	}
	return 1500 * time.Millisecond
}

func TestSchedulerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	f := newFixture(t)
	targets := f.targets(8)
	dur := soakDuration()

	s := New(Config{SelectWorkers: 2, FetchWorkers: 6, MaxActive: 6})
	defer s.Close()

	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	const submitters = 4
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w)+1, 0xdecafbad))
			cps := make(map[int]core.Checkpoint) // latest checkpoint per slot
			var cpMu sync.Mutex
			for round := 0; time.Now().Before(deadline); round++ {
				n := 1 + rng.IntN(3)
				jobs := make([]Job, 0, n)
				slots := make([]int, 0, n)
				for k := 0; k < n; k++ {
					slot := rng.IntN(len(targets))
					e := targets[slot]
					var fetchDelay time.Duration
					if rng.IntN(2) == 0 {
						fetchDelay = time.Duration(rng.IntN(40)) * time.Millisecond
					}
					sess := f.session(e, fetchDelay)
					budget := 1 + rng.IntN(3)
					// Resume churn: occasionally restart from the last
					// checkpoint this submitter saw for the slot.
					cpMu.Lock()
					if cp, ok := cps[slot]; ok && rng.IntN(3) == 0 {
						if err := sess.Resume(context.Background(), cp); err != nil {
							t.Error(err)
						}
					}
					cpMu.Unlock()
					jobs = append(jobs, Job{Session: sess, Selector: core.NewRT(), NQueries: budget})
					slots = append(slots, slot)
				}
				opts := BatchOptions{
					Checkpoint: func(job int, cp core.Checkpoint) {
						cpMu.Lock()
						cps[slots[job]] = cp
						cpMu.Unlock()
					},
				}
				if rng.IntN(3) == 0 {
					opts.Budget = BudgetPolicy{Mode: BudgetAdaptive}
				}
				ctx, cancel := context.WithCancel(context.Background())
				b, err := s.Submit(ctx, jobs, opts)
				if err != nil {
					cancel()
					t.Error(err)
					return
				}
				switch rng.IntN(4) {
				case 0:
					// Cancel mid-flight after a beat. The sleep is seeded
					// jitter, not a wait for an event: it spreads the cancel
					// over the job's lifetime.
					time.Sleep(time.Duration(rng.IntN(5)) * time.Millisecond)
					b.Cancel()
					b.Await(context.Background())
				case 1:
					// Abandon via ctx. The delay is drawn here: rng belongs
					// to this goroutine, and the next round may already be
					// drawing from it when the one below wakes. The sleep is
					// seeded jitter, like the one above.
					delay := time.Duration(rng.IntN(5)) * time.Millisecond
					go func() {
						time.Sleep(delay)
						cancel()
					}()
					b.Await(context.Background())
				default:
					b.Await(context.Background())
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()

	// The scheduler must be quiescent and reusable after the churn.
	st := s.Stats()
	if st.ActiveJobs != 0 || st.QueuedJobs != 0 || st.Batches != 0 {
		t.Fatalf("scheduler not quiescent after soak: %+v", st)
	}
	b, err := s.Submit(context.Background(), []Job{
		{Session: f.session(targets[0], 0), Selector: core.NewP(), NQueries: 1},
	}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range b.Await(context.Background()) {
		if r.Err != nil {
			t.Fatalf("post-soak submission failed: %v", r.Err)
		}
	}
}
