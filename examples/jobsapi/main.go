// Jobs API: long-running harvests as first-class server-side objects.
//
// A server-side harvest is a job: submitted, then polled or followed, and
// canceled, by whoever holds its id, for as long as the server keeps it
// (examples/httpharvest shows the one-call composition, HarvestBatch). This
// example drives the jobs API end to end against a real HTTP boundary:
//
//  1. submit a batch harvest as a job (POST /api/v1/jobs → id) with an
//     ADAPTIVE query budget — the server's shared scheduler pools the
//     queries and reallocates them each round toward the entities with
//     the highest marginal ΔR_E(Φ) gain;
//  2. follow its NDJSON event stream (GET /api/v1/jobs/{id}?stream=1);
//  3. kill a second, identical job mid-harvest (DELETE), read the
//     per-entity checkpoints from its status, and resume it as a new job
//     via the request's "resume" field;
//  4. verify the killed-and-resumed run fired exactly the queries of an
//     uninterrupted run — the checkpoint/resume contract;
//  5. read GET /api/v1/metrics (scheduler queue depth, budget pool state).
//
// The example exits non-zero on any parity break, so CI can run it as a
// smoke test.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"reflect"
	"time"

	"l2q"
)

func main() {
	sys, err := l2q.NewSyntheticSystem(l2q.Researchers, l2q.SystemOptions{
		NumEntities:    40,
		PagesPerEntity: 30,
		Seed:           5,
	})
	if err != nil {
		log.Fatal(err)
	}
	ids := sys.EntityIDs()
	targets := ids[len(ids)-6:]
	const nQueries = 4
	const aspect = "RESEARCH"

	srv := sys.NewSearchServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	client, err := sys.DialRemoteContext(ctx, addr, l2q.RemoteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search API + jobs API on http://%s\n\n", addr)

	// ── 1+2: an adaptive-budget job, followed live ─────────────────────
	id, err := client.SubmitJob(ctx, l2q.HarvestRequest{
		Entities: targets,
		Aspect:   aspect,
		NQueries: nQueries,
		Budget:   &l2q.BudgetSpec{Mode: "adaptive"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s submitted (%d entities × %d queries, adaptive budget %d)\n",
		id, len(targets), nQueries, len(targets)*nQueries)
	firedTotal := 0
	err = client.StreamJob(ctx, id, func(ev l2q.HarvestEvent) error {
		switch ev.Type {
		case "entity":
			firedTotal += len(ev.Fired)
			fmt.Printf("  entity %3d done: %d queries, %d pages\n", ev.Entity, len(ev.Fired), len(ev.Pages))
		case "error":
			return fmt.Errorf("entity %d failed: %s", ev.Entity, ev.Error)
		case "done":
			fmt.Printf("  done: %d entities, %d failed, %d queries spent of %d budget\n",
				ev.Entities, ev.Failed, firedTotal, len(targets)*nQueries)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if firedTotal > len(targets)*nQueries {
		log.Fatalf("PARITY BREAK: adaptive job overspent its budget (%d > %d)", firedTotal, len(targets)*nQueries)
	}

	// ── 3: kill a fixed-budget job mid-harvest, then resume it ─────────
	fmt.Printf("\nkilling a job mid-harvest and resuming from its checkpoints:\n")
	id2, err := client.SubmitJob(ctx, l2q.HarvestRequest{
		Entities: targets,
		Aspect:   aspect,
		NQueries: nQueries,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Wait for a little progress, then cancel. (If the harvest outraces
	// the poll and finishes first, skip the cancel — DELETE on a done
	// job forgets the record — and resume from the final checkpoints,
	// which degenerates to a no-op replay with the same parity contract.)
	var st l2q.JobStatus
	for {
		if st, err = client.JobStatus(ctx, id2, false); err != nil {
			log.Fatal(err)
		}
		if st.Events >= 2 || st.State == l2q.JobDone {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != l2q.JobDone {
		if err := client.CancelJob(ctx, id2); err != nil {
			log.Fatal(err)
		}
	}
	for {
		if st, err = client.JobStatus(ctx, id2, true); err != nil {
			var te *l2q.TransportError
			if errors.As(err, &te) && te.Status == http.StatusNotFound {
				// The job completed between the status poll and the
				// DELETE, which therefore forgot the record instead of
				// canceling. Resume from zero checkpoints — the parity
				// check below covers the from-scratch replay too.
				st = l2q.JobStatus{State: l2q.JobDone}
				break
			}
			log.Fatal(err)
		}
		if st.State == l2q.JobCanceled || st.State == l2q.JobDone {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	already := 0
	prior := make(map[l2q.EntityID][]string)
	for _, cp := range st.Checkpoints {
		already += len(cp.Fired)
		for _, q := range cp.Fired {
			prior[cp.Entity] = append(prior[cp.Entity], string(q))
		}
	}
	fmt.Printf("  job %s %s with %d queries already paid for across %d checkpoints\n",
		id2, st.State, already, len(st.Checkpoints))

	id3, err := client.SubmitJob(ctx, l2q.HarvestRequest{
		Entities: targets,
		Aspect:   aspect,
		NQueries: nQueries,
		Resume:   st.Checkpoints,
	})
	if err != nil {
		log.Fatal(err)
	}
	resumedFired := make(map[l2q.EntityID][]string)
	err = client.StreamJob(ctx, id3, func(ev l2q.HarvestEvent) error {
		switch ev.Type {
		case "entity":
			resumedFired[ev.Entity] = ev.Fired
		case "error":
			return fmt.Errorf("resumed entity %d failed: %s", ev.Entity, ev.Error)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  job %s resumed and finished, paying only the remaining queries\n", id3)

	// ── 4: parity with an uninterrupted run ────────────────────────────
	dm, err := sys.LearnDomain(aspect, ids[:20])
	if err != nil {
		log.Fatal(err)
	}
	for _, eid := range targets {
		h := sys.NewHarvesterSeeded(sys.Corpus().Entity(eid), aspect, dm, uint64(eid)+1)
		want, err := h.RunCtx(ctx, l2q.NewL2QBAL(), nQueries)
		if err != nil {
			log.Fatal(err)
		}
		got := append([]string(nil), prior[eid]...)
		got = append(got, resumedFired[eid]...)
		wantS := make([]string, len(want))
		for i, q := range want {
			wantS[i] = string(q)
		}
		if !reflect.DeepEqual(got, wantS) {
			log.Fatalf("PARITY BREAK: entity %d killed+resumed fired %v, uninterrupted %v", eid, got, wantS)
		}
	}
	fmt.Printf("  parity OK: killed+resumed fired sequences match an uninterrupted run\n")

	// ── 5: server-side metrics ─────────────────────────────────────────
	m, err := client.ServerMetrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserver metrics: %d requests served; scheduler finished %d jobs, fired %d queries\n",
		m.Requests, m.Scheduler.FinishedJobs, m.Scheduler.FiredQueries)
	fmt.Println("\njobs API round trip complete")
}
