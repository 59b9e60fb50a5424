package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"time"
)

// config sizes one run. paperScale is what BENCHMARK.json measures; the
// smoke test shrinks the corpus and the windows.
type config struct {
	Workload string
	Seed     uint64
	Window   time.Duration
	Trace    bool

	// The collection is fixed: the corpus comes from CollectionSeed at
	// every --seed, so results compare over time and the harvest quality
	// metrics are exact. --seed drives what is sampled from it.
	Entities, Pages int
	CollectionSeed  uint64

	Clients        int // closed-loop callers: one, so client and server together keep no more threads busy than the box has cores (2)
	DomainEntities int // domain phase runs over the first this-many entities
	JobEntities    int // harvest_remote's job list: this many second-half entities × every aspect
	ProbeEntities  int // quality probe: this many second-half entities × every aspect
	QueryPop       int // distinct search queries, ≈ 8× the engine's 4096-entry cache
	RedialEvery    int // a search client re-dials after this many ops, bounding its page cache
	WarmSearchOps  int // warm-up before the first timed op: the hottest queries, once each
	WarmJobs       int // … and jobs per client
	OracleJobs     int // probe jobs repeated in-process
	OracleOps      int // search ops repeated in-process
	IngestRate     int // pages/s of the open-loop ingest stream
	IngestBatches  int // batches/s
	IngestLagLimit time.Duration

	// OutDir receives the traced run's span file.
	OutDir string
}

func paperScale() config {
	return config{
		Entities: 996, Pages: 50, CollectionSeed: 2016,
		Clients: 1, DomainEntities: 24, JobEntities: 128, ProbeEntities: 16,
		QueryPop: 32768, RedialEvery: 256,
		WarmSearchOps: 1024, WarmJobs: 16,
		OracleJobs: 32, OracleOps: 64,
		IngestRate: 400, IngestBatches: 20, IngestLagLimit: time.Second,
		OutDir: filepath.Join("bench", "out"),
	}
}

// zipfS is the skew of search traffic over the shuffled population: a hot
// head the query cache holds and a long tail it cannot.
const zipfS = 1.1

// seqLen is how many operations each client's pre-drawn sequence holds;
// a client that exhausts it starts over.
const seqLen = 1 << 16

// searchSequences draws each client's operation sequence: indices into
// the population, Zipf-distributed over an order the collection fixes.
// Which queries are hot belongs to the collection — their cost differs by
// tens of percent, so a head that moved with the seed would make runs at
// different seeds different workloads; the seed drives the draws.
//
// warm is each client's warm-up sequence: the warmOps hottest queries once
// each, coldest first, dealt round-robin. It costs the fewest misses that
// fill the engine's query cache; with too short a warm-up the hit ratio is
// still climbing through the window, throughput ramps by a fifth inside
// it, and how far a run gets up the ramp amplifies every other noise.
func searchSequences(seed, collectionSeed uint64, clients, population, warmOps int) (seqs, warm [][]uint32) {
	perm := rand.New(rand.NewPCG(collectionSeed, 1)).Perm(population)
	seqs, warm = make([][]uint32, clients), make([][]uint32, clients)
	for c := range seqs {
		rng := rand.New(rand.NewPCG(seed, uint64(c)+2))
		z := rand.NewZipf(rng, zipfS, 1, uint64(population-1))
		seq := make([]uint32, seqLen)
		for i := range seq {
			seq[i] = uint32(perm[z.Uint64()])
		}
		seqs[c] = seq
	}
	for rank := min(warmOps, population) - 1; rank >= 0; rank-- {
		warm[rank%clients] = append(warm[rank%clients], uint32(perm[rank]))
	}
	return seqs, warm
}

// harvestJobs is the fixed job list — the first n second-half entities ×
// every aspect — with the entities in seed-shuffled order, dealt
// round-robin to the clients. A client harvests every aspect of one
// entity before it moves to the next, so whatever part of the list a
// window reaches holds the aspects (whose jobs differ most in cost) in
// equal shares. n is a little more than a window gets through: entities
// differ in cost too, and a window that sampled a fifth of all of them
// would measure a different fifth at every seed.
func harvestJobs(seed uint64, clients, entities, n, aspects int) [][]job {
	var second []int
	for e := entities / 2; e < entities && len(second) < n; e++ {
		second = append(second, e)
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	rng.Shuffle(len(second), func(i, j int) { second[i], second[j] = second[j], second[i] })
	out := make([][]job, clients)
	for i, e := range second {
		for a := 0; a < aspects; a++ {
			out[i%clients] = append(out[i%clients], job{Entity: e, Aspect: a})
		}
	}
	return out
}

// probeJobs is the quality probe's job set: n second-half entities spread
// evenly over that half × every aspect. It does not depend on --seed, so
// the quality metrics repeat exactly from run to run.
func probeJobs(n, entities, aspects int) []job {
	half := entities - entities/2
	n = min(n, half)
	var out []job
	for k := 0; k < n; k++ {
		e := entities/2 + k*half/n
		for a := 0; a < aspects; a++ {
			out = append(out, job{Entity: e, Aspect: a})
		}
	}
	return out
}

// hashSequences and hashJobs fingerprint the generated inputs (recorded
// in the result; the determinism tests compare them).
func hashSequences(seqs [][]uint32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, s := range seqs {
		for _, v := range s {
			binary.LittleEndian.PutUint32(b[:], v)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func hashJobs(lists [][]job) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range lists {
		for _, j := range l {
			binary.LittleEndian.PutUint32(b[:4], uint32(j.Entity))
			binary.LittleEndian.PutUint32(b[4:], uint32(j.Aspect))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// client is one closed-loop caller: it sends its next operation only when
// the previous one has completed. It keeps its place in its sequence
// across the phases of a run.
type client struct {
	s    *sut
	base string
	op   func(ctx context.Context, c *client, tr *tracer) error
	name string // root span name of one operation

	queries []query
	seq     []uint32
	jobs    []job
	pos     int

	re        *remote
	sinceDial int
	redial    int

	// m is the run's meter; probe is the client's machine-speed probe,
	// run once sinceProbe has reached probeEvery.
	m          *meter
	probe      *speedProbe
	sinceProbe time.Duration

	phaseStats
}

// phaseStats is what a client accumulates over one phase.
type phaseStats struct {
	latMs    []float64
	latSlice []int32 // the window slice each operation ended in
	failed   int
	firstErr error
	dials    int
	dialTime time.Duration
	counters clientCounters
}

// searchOp is one search+download, re-dialing first when the client's
// page cache has seen redial operations.
func searchOp(ctx context.Context, c *client, tr *tracer) error {
	if c.re == nil || c.sinceDial >= c.redial {
		if c.re != nil {
			c.counters.add(c.re)
		}
		t0 := time.Now()
		re, err := c.s.dial(ctx, c.base)
		if err != nil {
			c.re = nil
			return err
		}
		c.dials++
		c.dialTime += time.Since(t0)
		c.re, c.sinceDial = re, 0
	}
	q := c.queries[c.seq[c.pos%len(c.seq)]]
	c.pos++
	c.sinceDial++
	_, err := c.s.searchRemote(ctx, c.re, q)
	return err
}

// harvestOp is one harvest job: dial → new remote harvester → L2QBAL.
func harvestOp(ctx context.Context, c *client, tr *tracer) error {
	j := c.jobs[c.pos%len(c.jobs)]
	c.pos++
	h, err := c.s.harvestRemote(ctx, c.base, j, &c.counters, tr)
	if err != nil {
		return err
	}
	c.dials++
	c.dialTime += h.dial
	if len(h.pages) == 0 {
		return fmt.Errorf("job (entity %d, aspect %d) gathered no page", j.Entity, j.Aspect)
	}
	return nil
}

// run issues operations until stop says so. Each operation's latency is
// kept whether it failed or not; a failed one is counted as failed.
func (c *client) run(ctx context.Context, stop func(done int) bool, tr *tracer) {
	for n := 0; !stop(n) && ctx.Err() == nil; n++ {
		root := tr.beginOp(c.name)
		t0 := time.Now()
		err := c.op(ctx, c, tr)
		d := time.Since(t0)
		tr.end(root)
		c.latMs = append(c.latMs, float64(d)/float64(time.Millisecond))
		c.latSlice = append(c.latSlice, c.m.slice.Load())
		c.m.ops.Add(1)
		c.m.opNs.Add(int64(d))
		if c.sinceProbe += d; c.sinceProbe >= probeEvery {
			c.sinceProbe = 0
			c.m.probeNs.Add(int64(c.probe.chunk()))
			c.m.probes.Add(1)
		}
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
		}
	}
}

// takeStats returns the phase's statistics and clears them. The counters
// of a search client's live connection are folded in first.
func (c *client) takeStats() phaseStats {
	if c.re != nil {
		c.counters.add(c.re)
		// The connection's counters are cumulative; forget it so the
		// next phase starts from a fresh dial and counts from zero.
		c.re = nil
	}
	st := c.phaseStats
	c.phaseStats = phaseStats{}
	return st
}

// phase is the merged result of running some clients side by side.
type phase struct {
	wall time.Duration
	phaseStats
}

func (p *phase) ops() int { return len(p.latMs) }

// runPhase runs the given clients concurrently until each one's stop
// function fires, and merges what they measured.
func runPhase(ctx context.Context, clients []*client, stop func(done int) bool, tr *tracer) phase {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(ctx, stop, tr)
		}()
	}
	wg.Wait()
	p := phase{wall: time.Since(start)}
	for _, c := range clients {
		st := c.takeStats()
		p.latMs = append(p.latMs, st.latMs...)
		p.latSlice = append(p.latSlice, st.latSlice...)
		p.failed += st.failed
		if p.firstErr == nil {
			p.firstErr = st.firstErr
		}
		p.dials += st.dials
		p.dialTime += st.dialTime
		p.counters.Requests += st.counters.Requests
		p.counters.Retries += st.counters.Retries
		p.counters.Errors += st.counters.Errors
		p.counters.PageFetches += st.counters.PageFetches
	}
	return p
}

// until stops a client once the deadline has passed; count stops it after
// n operations.
func until(deadline time.Time) func(int) bool {
	return func(int) bool { return !time.Now().Before(deadline) }
}

func count(n int) func(int) bool {
	return func(done int) bool { return done >= n }
}

// ingestStream is the open-loop write traffic of search_live_ingest: one
// batch every 1/IngestBatches seconds whatever the server does. A batch's
// lag runs from the moment it was due, so a stall is charged to every
// batch it delays.
type ingestStream struct {
	lagMs   []float64
	lateMs  []float64 // how late the generator itself sent each batch
	sent    int       // pages
	acked   int       // pages the server reported as newly ingested
	dups    int
	failed  int // batches that failed or missed the lag limit
	batches int
	numDocs int // the server's document count after the last ack
	err     error
	ackedID []int64
}

// run sends n batches on schedule, then returns. The stream outlives the
// phases of a run, so it asks for the active tracer batch by batch.
func (g *ingestStream) run(ctx context.Context, s *sut, base string, d *donor, cfg config, n int, active func() *tracer) {
	re, err := s.dial(ctx, base)
	if err != nil {
		g.err, g.failed = err, n
		return
	}
	per := cfg.IngestRate / cfg.IngestBatches
	interval := time.Second / time.Duration(cfg.IngestBatches)
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		lo := i * per
		if lo+per > d.len() {
			g.err = fmt.Errorf("donor corpus exhausted after %d pages", lo)
			g.failed += n - i
			return
		}
		due := start.Add(time.Duration(i) * interval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		g.lateMs = append(g.lateMs, float64(time.Since(due))/float64(time.Millisecond))
		tr := active()
		id := tr.detachedRoot("ingest")
		a, err := d.send(withSpan(ctx, id), re, lo, lo+per)
		tr.endDetached(id, int64(per))
		lag := time.Since(due)
		g.batches++
		g.sent += per
		if err != nil {
			g.failed++
			if g.err == nil {
				g.err = err
			}
			continue
		}
		g.lagMs = append(g.lagMs, float64(lag)/float64(time.Millisecond))
		if lag > cfg.IngestLagLimit {
			g.failed++
		}
		g.acked += a.Ingested
		g.dups += a.Duplicates
		g.numDocs = a.NumDocs
		for k := lo; k < lo+per; k++ {
			g.ackedID = append(g.ackedID, d.id(k))
		}
	}
}
