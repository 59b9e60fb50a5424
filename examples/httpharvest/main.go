// HTTP harvest: run the full L2Q loop across a real HTTP boundary — the
// setting the paper targets, where the harvester pays per search-API call
// and per page download (§I) — and across a *hostile* one: the remote
// client here talks to the search API through a fault injector that
// answers 20% of requests with a 500 and truncates another 10% mid-body,
// and the harvest still gathers exactly the pages the in-process engine
// does, because the transport retries transient faults with exponential
// backoff instead of silently losing work.
//
// The example then flips the topology with a server-side harvest:
// HarvestBatch submits a job (POST /api/v1/jobs) that runs pipelined
// sessions next to the index, follows the job's NDJSON event stream, and
// deletes the job on its way out — three requests replacing the per-query
// traffic of the client-side run (one search per fired query, each
// response carrying the pages of its hits).
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
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
	dm, err := sys.LearnDomain("RESEARCH", ids[:20])
	if err != nil {
		log.Fatal(err)
	}
	target := sys.Corpus().Entity(ids[len(ids)-1])

	// Serve the corpus as a search API on a random local port...
	srv := sys.NewSearchServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	defer srv.Shutdown(ctx)

	// ...and put a fault injector in front of it: a flaky mirror of the
	// same API that errors or truncates 30% of responses.
	flaky := &l2q.FaultInjector{
		Next:         srv.Handler(),
		ErrorRate:    0.20,
		TruncateRate: 0.10,
		Seed:         7,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go http.Serve(ln, flaky) //nolint:errcheck // closed by ln.Close on exit
	flakyAddr := ln.Addr().String()
	fmt.Printf("search API serving %d pages on http://%s\n", sys.Corpus().NumPages(), addr)
	fmt.Printf("flaky front end on http://%s (20%% errors, 10%% truncated bodies)\n\n", flakyAddr)

	// Dial the FLAKY address with a patient retry policy, once per wire
	// codec: CodecAuto negotiates the binary frames, CodecJSON pins the
	// debug wire. Both must harvest identically through the faults.
	retry := l2q.RetryPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond}
	dialFlaky := func(codec l2q.Codec) *l2q.RemoteEngine {
		re, err := sys.DialRemoteContext(ctx, flakyAddr, l2q.RemoteOptions{Retry: retry, Codec: codec})
		if err != nil {
			log.Fatal(err)
		}
		return re
	}
	remote := dialFlaky(l2q.CodecAuto)
	st := remote.Stats()
	fmt.Printf("dialed: top-%d results, μ=%.0f, %d terms, binary wire negotiated: %v\n\n",
		st.TopK, st.Mu, st.NumTerms, remote.WireNegotiated())

	fmt.Printf("harvesting %q RESEARCH remotely through the faults (3 queries, binary wire)\n", target.Name)
	rh := sys.NewRemoteHarvester(remote, target, "RESEARCH", dm)
	remoteFired, err := rh.RunCtx(ctx, l2q.NewL2QBAL(), 3)
	if err != nil {
		log.Fatal(err)
	}
	for i, q := range remoteFired {
		fmt.Printf("  q(%d) = %s\n", i+1, q)
	}
	m := remote.Metrics()
	passed, errs, truncated := flaky.Counts()
	fmt.Printf("gathered %d pages over HTTP; %d requests (%d retried, %d failed for good)\n",
		len(rh.Pages()), m.Requests, m.Retries, m.Errors)
	fmt.Printf("injector: %d served, %d errored, %d truncated\n\n", passed, errs, truncated)

	// The same flaky harvest pinned to JSON — the wire codec must be
	// invisible to the harvest's behavior.
	jh := sys.NewRemoteHarvester(dialFlaky(l2q.CodecJSON), target, "RESEARCH", dm)
	jsonFired, err := jh.RunCtx(ctx, l2q.NewL2QBAL(), 3)
	if err != nil {
		log.Fatal(err)
	}

	// The ground truth: the same harvest with the in-process engine.
	lh := sys.NewHarvesterSeeded(target, "RESEARCH", dm, 1)
	localFired, err := lh.RunCtx(ctx, l2q.NewL2QBAL(), 3)
	if err != nil {
		log.Fatal(err)
	}

	same := len(localFired) == len(remoteFired) && len(jsonFired) == len(remoteFired)
	for i := 0; same && i < len(localFired); i++ {
		same = localFired[i] == remoteFired[i] && jsonFired[i] == remoteFired[i]
	}
	fmt.Printf("in-process and JSON-wire runs selected the same queries: %v\n", same)
	fmt.Printf("pages gathered: %d binary vs %d json vs %d local\n\n",
		len(rh.Pages()), len(jh.Pages()), len(lh.Pages()))
	if !same || len(rh.Pages()) != len(lh.Pages()) || len(jh.Pages()) != len(lh.Pages()) {
		// This example doubles as the CI smoke test for the remote path:
		// a parity break must fail the run, not just print false.
		log.Fatalf("wire/in-process parity broken: queries %v vs %v vs %v, pages %d/%d/%d",
			remoteFired, jsonFired, localFired, len(rh.Pages()), len(jh.Pages()), len(lh.Pages()))
	}

	// Server-side batch harvest: the sessions run next to the index as one
	// job and progress streams back as NDJSON events. A submit starts real
	// work and is not retried, so this client dials the clean address.
	fmt.Println("server-side batch harvest of 3 entities (POST /api/v1/jobs, followed to done):")
	direct, err := sys.DialRemoteContext(ctx, addr, l2q.RemoteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	batch := []l2q.EntityID{ids[len(ids)-3], ids[len(ids)-2], ids[len(ids)-1]}
	events, entitiesDone := 0, 0
	err = direct.HarvestBatch(ctx, l2q.HarvestRequest{
		Entities: batch,
		Aspect:   "RESEARCH",
		Strategy: "L2QBAL",
		NQueries: 2,
	}, func(ev l2q.HarvestEvent) error {
		events++
		switch ev.Type {
		case "progress":
			fmt.Printf("  entity %d · q(%d) = %s (+%d pages)\n", ev.Entity, ev.Iteration, ev.Query, ev.NewPages)
		case "entity":
			entitiesDone++
			fmt.Printf("  entity %d done: %d queries, %d pages\n", ev.Entity, len(ev.Fired), len(ev.Pages))
		case "error":
			fmt.Printf("  entity %d failed: %s\n", ev.Entity, ev.Error)
		case "done":
			fmt.Printf("  batch done: %d entities, %d failed\n", ev.Entities, ev.Failed)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d events streamed, %d entities harvested server-side\n", events, entitiesDone)
}
