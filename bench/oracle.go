package main

import (
	"context"
	"slices"
	"sync"
)

// oracleWorkers is how many jobs of the quality probe and of the harvest
// oracle run side by side: nothing is timed there, so both cores work.
const oracleWorkers = 2

// eachOf runs fn(i) for i in [0, n) on workers goroutines, dealing the
// indices round-robin.
func eachOf(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// probeAndOracles runs, outside the timed window and on the same fleet,
// the fixed quality probe and the workload's correctness oracles. Every
// sample counts as an attempted operation and every difference as a
// failed one.
func (r *run) probeAndOracles(ctx context.Context) {
	cfg, s, res := r.cfg, r.s, r.res
	front := r.fleet.front

	// Quality probe: the same jobs at every seed, through this fleet.
	jobs := probeJobs(cfg.ProbeEntities, len(s.entities), len(s.aspects))
	got := make([]harvested, len(jobs))
	errs := make([]error, len(jobs))
	counters := make([]clientCounters, oracleWorkers)
	eachOf(len(jobs), oracleWorkers, func(i int) {
		got[i], errs[i] = s.harvestRemote(ctx, front, jobs[i], &counters[i%oracleWorkers], nil)
	})
	res.Attempted += int64(len(jobs))
	outcomes := make([]outcome, len(jobs))
	var relevant, queries, judged int
	var recall float64
	for i, j := range jobs {
		if errs[i] != nil {
			res.fail(1, "probe job (entity %d, aspect %d): %v", j.Entity, j.Aspect, errs[i])
			continue
		}
		o := s.score(j, got[i])
		outcomes[i] = o
		relevant += o.Relevant
		queries += len(o.Fired) + 1 // the seed query is paid for too
		if o.Universe > 0 {
			recall += float64(o.Relevant) / float64(o.Universe)
			judged++
		}
	}
	if queries > 0 {
		r.values["harvest_rel_pages_per_query"] = float64(relevant) / float64(queries)
	}
	if judged > 0 {
		r.values["harvest_recall_at_budget"] = recall / float64(judged)
	}

	switch cfg.Workload {
	case "search_live_ingest":
		r.liveOracle(ctx)
		return // the grown corpus has no in-process twin
	case "search_frozen", "search_cluster3":
		r.searchOracle(ctx)
	}

	// Harvest oracle: sampled probe jobs ≡ the same job in process.
	n := min(cfg.OracleJobs, len(jobs))
	local := make([]harvested, n)
	localErr := make([]error, n)
	pick := func(k int) int { return k * len(jobs) / n }
	eachOf(n, oracleWorkers, func(k int) {
		local[k], localErr[k] = s.harvestLocal(ctx, jobs[pick(k)])
	})
	res.Attempted += int64(n)
	for k := 0; k < n; k++ {
		i := pick(k)
		j := jobs[i]
		switch {
		case localErr[k] != nil:
			res.fail(1, "in-process job (entity %d, aspect %d): %v", j.Entity, j.Aspect, localErr[k])
		case errs[i] != nil: // already counted by the probe
		default:
			want := s.score(j, local[k])
			if !slices.Equal(want.Fired, outcomes[i].Fired) || !slices.Equal(want.Pages, outcomes[i].Pages) {
				res.mismatch("job (entity %d, aspect %d): remote fired %q and gathered %v, in-process fired %q and gathered %v",
					j.Entity, j.Aspect, outcomes[i].Fired, outcomes[i].Pages, want.Fired, want.Pages)
			}
		}
	}
}

// searchOracle: sampled search operations ≡ the in-process engine, page
// IDs in order and scores bit for bit.
func (r *run) searchOracle(ctx context.Context) {
	res := r.res
	re, err := r.s.dial(ctx, r.fleet.front)
	if err != nil {
		res.Attempted++
		res.fail(1, "oracle dial: %v", err)
		return
	}
	seen := map[uint32]bool{}
	for _, op := range r.seqs[0] {
		if len(seen) == r.cfg.OracleOps {
			break
		}
		if seen[op] {
			continue
		}
		seen[op] = true
		q := r.queries[op]
		res.Attempted++
		got, err := r.s.searchRemote(ctx, re, q)
		if err != nil {
			res.fail(1, "oracle search %q: %v", q.Terms, err)
			continue
		}
		if want := r.s.searchLocal(q); !slices.Equal(got, want) {
			res.mismatch("search %q ∥ %q: remote %v, in-process %v", q.Seed, q.Terms, got, want)
		}
	}
}

// liveOracle: every page sent was acknowledged as ingested or duplicate,
// the server holds exactly the base corpus plus the acknowledged pages,
// and sampled acknowledged pages download under their own ID.
func (r *run) liveOracle(ctx context.Context) {
	g, res := r.ingest, r.res
	res.Attempted += 2
	if g.acked+g.dups != g.sent {
		res.mismatch("ingest: acked %d + duplicates %d ≠ sent %d", g.acked, g.dups, g.sent)
	}
	if want := r.s.numPages() + g.acked; g.numDocs != want {
		res.mismatch("ingest: server holds %d documents, want %d + %d", g.numDocs, r.s.numPages(), g.acked)
	}
	re, err := r.s.dial(ctx, r.fleet.front)
	if err != nil {
		res.Attempted++
		res.fail(1, "oracle dial: %v", err)
		return
	}
	n := min(r.cfg.OracleOps, len(g.ackedID))
	for k := 0; k < n; k++ {
		id := g.ackedID[k*len(g.ackedID)/n]
		res.Attempted++
		got, err := r.s.downloadPage(ctx, re, id)
		if err != nil {
			res.fail(1, "download of ingested page %d: %v", id, err)
		} else if got != id {
			res.mismatch("ingested page %d downloads as page %d", id, got)
		}
	}
}
