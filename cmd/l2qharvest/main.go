// Command l2qharvest runs one harvesting session end to end: generate the
// corpus, learn the domain model (for the methods that run with one), then
// harvest one entity's aspect with the chosen strategy, printing each
// iteration's query and cumulative quality.
//
// Usage:
//
//	l2qharvest -domain researchers -aspect RESEARCH -strategy L2QBAL -queries 4
//	l2qharvest -domain cars -aspect SAFETY -entity 120 -strategy MQ
//	l2qharvest -remote 127.0.0.1:8080 ...   # search via a l2qserve instance
//	l2qharvest -checkpoint run.ckpt ...     # durable, resumable harvest
//
// With -remote, searches go through the HTTP search API, each response
// carrying the pages of its hits (the corpus and domain model are still
// built locally — the flag changes the transport, exactly the paper's
// commercial-search-API setting; the served corpus must match the local
// -domain/-entities/-pages/-seed).
//
// With -checkpoint, the session's durable state is written after every
// step (atomically), and a matching checkpoint file is resumed on start:
// kill the harvest at any point (Ctrl-C checkpoints and exits cleanly) and
// rerun the same command line to continue where it stopped, paying only
// the queries not yet fired. -replaycheck verifies the final fired
// sequence against an uninterrupted in-process run (deterministic
// strategies only — RND draws from the RNG during selection, which a
// replay does not).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"syscall"
	"time"

	"l2q"
	"l2q/internal/baselines"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/store"
)

func main() {
	var (
		domain   = flag.String("domain", "researchers", "researchers or cars")
		aspect   = flag.String("aspect", "RESEARCH", "target aspect (see Fig. 9)")
		strategy = flag.String("strategy", "L2QBAL", methodNames())
		entityIx = flag.Int("entity", -1, "entity index (-1 = last entity)")
		queries  = flag.Int("queries", 3, "number of selected queries")
		entities = flag.Int("entities", 120, "corpus entities")
		pages    = flag.Int("pages", 40, "pages per entity")
		dsample  = flag.Int("domainsample", 40, "domain entities for the domain phase")
		seed     = flag.Uint64("seed", 1, "corpus seed")
		remote   = flag.String("remote", "", "harvest via this HTTP search API instead of in-process")
		retries  = flag.Int("retries", 4, "remote transport: attempts per request (1 = no retries)")
		rtimeout = flag.Duration("timeout", 30*time.Second, "remote transport: per-request HTTP timeout")
		wireFlag = flag.String("wire", "auto", "remote transport: wire codec — auto (negotiate binary, fall back to JSON), json, or binary (require it)")
		ckpt     = flag.String("checkpoint", "", "checkpoint file: resume from it if present, write it after every step")
		replay   = flag.Bool("replaycheck", false, "after finishing, verify the fired sequence against an uninterrupted run")
	)
	flag.Parse()

	sys, err := l2q.NewSyntheticSystem(corpus.Domain(*domain), l2q.SystemOptions{
		NumEntities: *entities, PagesPerEntity: *pages, Seed: *seed,
	})
	if err != nil {
		fail(err)
	}
	ids := sys.EntityIDs()
	a := l2q.Aspect(*aspect)

	found := false
	for _, known := range sys.Aspects() {
		if known == a {
			found = true
		}
	}
	if !found {
		fail(fmt.Errorf("unknown aspect %q; choose one of %v", a, sys.Aspects()))
	}

	method, ok := baselines.LookupMethod(*strategy)
	if !ok {
		fail(fmt.Errorf("unknown strategy %q", *strategy))
	}
	// Only a method that runs with the domain model pays for learning it:
	// the others fire the same queries without it.
	var dm *l2q.DomainModel
	var hr *l2q.HRModel
	if *dsample > 0 && method.DomainModel {
		if dm, err = sys.LearnDomain(a, ids[:min(*dsample, len(ids)/2)]); err != nil {
			fail(err)
		}
	}
	if method.NeedsHR {
		if hr, err = sys.TrainHR(a, ids[:min(*dsample, len(ids)/2)]); err != nil {
			fail(err)
		}
	}
	sel := method.New(corpus.Domain(*domain), a, hr)

	ix := *entityIx
	if ix < 0 || ix >= len(ids) {
		ix = len(ids) - 1
	}
	target := sys.Corpus().Entity(ids[ix])

	relUniverse := 0
	for _, p := range sys.Corpus().PagesOf(target.ID) {
		if sys.Relevant(a, p) {
			relUniverse++
		}
	}

	fmt.Printf("entity:   %q (seed query %q)\n", target.Name, target.SeedQuery)
	fmt.Printf("aspect:   %s (%d relevant pages in the corpus)\n", a, relUniverse)
	fmt.Printf("strategy: %s\n\n", sel.Name())

	var h *l2q.Harvester
	var re *l2q.RemoteEngine
	if *remote != "" {
		// The resilient path: transient transport faults (5xx, timeouts,
		// truncated bodies) are retried with exponential backoff instead
		// of surfacing as empty "unproductive" queries.
		codec, err := l2q.ParseCodec(*wireFlag)
		if err != nil {
			fail(err)
		}
		opts := l2q.RemoteOptions{
			Retry:   l2q.RetryPolicy{MaxAttempts: *retries},
			Timeout: *rtimeout,
			Codec:   codec,
		}
		dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
		re, err = sys.DialRemoteContext(dctx, *remote, opts)
		dcancel()
		if err != nil {
			fail(err)
		}
		negotiated := "json"
		if re.WireNegotiated() {
			negotiated = "binary"
		}
		fmt.Printf("remote:   http://%s (%d pages served; %d attempts/request; %s wire)\n\n",
			*remote, re.Stats().NumPages, *retries, negotiated)
		h = sys.NewRemoteHarvester(re, target, a, dm)
	} else {
		h = sys.NewHarvester(target, a, dm)
	}

	// The harvest is interruptible (StepCtx threads the signal context
	// through the fetch stack) and, with -checkpoint, durable: Ctrl-C
	// writes the final checkpoint and a rerun resumes the exact session.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	resumed := 0
	if *ckpt != "" {
		if _, err := os.Stat(*ckpt); err == nil {
			cps, err := store.LoadCheckpointsFile(*ckpt)
			if err != nil {
				fail(err)
			}
			for _, cp := range cps {
				if cp.Entity == target.ID && cp.Aspect == corpus.Aspect(a) {
					if err := h.Resume(ctx, cp); err != nil {
						fail(err)
					}
					resumed = len(cp.Fired)
					fmt.Printf("resumed %d fired queries from %s\n", resumed, *ckpt)
					break
				}
			}
		}
	}
	saveCkpt := func() {
		if *ckpt == "" {
			return
		}
		if err := store.SaveCheckpointsFile(*ckpt, []core.Checkpoint{h.Snapshot()}); err != nil {
			fmt.Fprintf(os.Stderr, "l2qharvest: checkpoint: %v\n", err)
		}
	}
	interrupted := func(err error) {
		saveCkpt()
		if *ckpt != "" {
			fmt.Printf("\ninterrupted (%v); checkpoint saved to %s — rerun to resume\n", err, *ckpt)
			os.Exit(0)
		}
		fail(err)
	}

	if _, err := h.BootstrapCtx(ctx); err != nil {
		interrupted(err)
	}
	report(h, sys, target, a, relUniverse, "seed")
	saveCkpt()
	for i := resumed; i < *queries; i++ {
		q, ok, err := h.StepCtx(ctx, sel)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				interrupted(err)
			}
			fail(err)
		}
		if !ok {
			fmt.Println("selector ran out of candidates")
			break
		}
		report(h, sys, target, a, relUniverse, string(q))
		saveCkpt()
	}
	fmt.Printf("\nselection time: %v total\n", h.SelectionTime().Round(1000))
	if re != nil {
		m := re.Metrics()
		fmt.Printf("HTTP requests issued: %d (%d retried, %d failed after retries); pages: %d inside search responses, %d downloaded; %d responses from the decode memo\n",
			m.Requests, m.Retries, m.Errors, m.PagesAttached, m.PageFetches, m.DecodedFromMemo)
	}

	if *replay {
		// Uninterrupted in-process reference: same seeding conventions,
		// full budget in one go. Equal fired sequences prove the
		// checkpoint/resume path reproduced the session exactly.
		ref := sys.NewHarvester(target, a, dm)
		refFired, err := ref.RunCtx(ctx, sel, *queries)
		if err != nil {
			fail(err)
		}
		if reflect.DeepEqual(refFired, h.Fired()) {
			fmt.Printf("replaycheck: OK (%d queries match an uninterrupted run)\n", len(refFired))
		} else {
			fail(fmt.Errorf("replaycheck: fired %v, uninterrupted run fires %v", h.Fired(), refFired))
		}
	}
}

func report(h *l2q.Harvester, sys *l2q.System, e *l2q.Entity, a l2q.Aspect, relU int, label string) {
	rel, tot := 0, len(h.Pages())
	for _, p := range h.Pages() {
		if p.Entity == e.ID && sys.Relevant(a, p) {
			rel++
		}
	}
	prec, rec := 0.0, 0.0
	if tot > 0 {
		prec = float64(rel) / float64(tot)
	}
	if relU > 0 {
		rec = float64(rel) / float64(relU)
	}
	fmt.Printf("%-28q → %2d pages, precision %.2f, recall %.2f\n", label, tot, prec, rec)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "l2qharvest: %v\n", err)
	os.Exit(1)
}

// methodNames lists the -strategy values, case-insensitive: every method
// of the paper's evaluation.
func methodNames() string {
	var names []string
	for _, m := range baselines.Methods() {
		names = append(names, m.Name)
	}
	return strings.Join(names, "|") + " (any case)"
}
