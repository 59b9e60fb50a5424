package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"
)

// buildServer compiles cmd/l2qserve into dir and reports how long that
// took; set-up time excludes it.
func buildServer(ctx context.Context, dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "l2qserve")
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "l2q/cmd/l2qserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build l2q/cmd/l2qserve: %w\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// snapshot is the state of every counter read from outside the program
// at one instant: /proc CPU times and each server's /api/v1/metrics.
type snapshot struct {
	selfCPU float64
	selfMB  float64 // cumulative bytes the generator has allocated, in MB
	cpu     map[*proc]float64
	srv     map[*proc]serverCounters
}

// run is one workload in flight.
type run struct {
	cfg    config
	res    *result
	s      *sut
	fleet  *fleet
	admins map[*proc]*remote // one metrics client per server process
	tt     *tracingTransport // nil unless tracing

	clients []*client
	m       meter
	queries []query
	seqs    [][]uint32
	warm    [][]uint32
	donor   *donor
	ingest  *ingestStream
	values  map[string]float64
}

func (r *run) snapshot(ctx context.Context) (snapshot, error) {
	sn := snapshot{cpu: map[*proc]float64{}, srv: map[*proc]serverCounters{}}
	var err error
	if sn.selfCPU, err = cpuMs(os.Getpid()); err != nil {
		return sn, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sn.selfMB = float64(ms.TotalAlloc) / (1 << 20)
	for _, p := range r.fleet.procs {
		if sn.cpu[p], err = cpuMs(p.cmd.Process.Pid); err != nil {
			return sn, fmt.Errorf("%s: %w", p.role, err)
		}
		if sn.srv[p], err = readServerCounters(ctx, r.admins[p]); err != nil {
			return sn, fmt.Errorf("%s metrics: %w", p.role, err)
		}
	}
	return sn, nil
}

// runWorkload measures one workload. start is when the process (or, in
// the smoke test, the workload) began; buildTime is excluded from set-up.
func runWorkload(ctx context.Context, cfg config, bin, dir string, start time.Time, buildTime time.Duration) (*result, error) {
	r := &run{cfg: cfg, res: newResult(cfg, loadAvg1()), values: map[string]float64{}}
	sizeIdlePool()
	if cfg.Trace {
		r.tt = installTransport()
	}

	// ---- set-up: the fleet boots beside the generator's own system ----
	type booted struct {
		f   *fleet
		err error
	}
	fc := make(chan booted, 1)
	go func() {
		f, err := startFleet(ctx, bin, dir, cfg.Workload, corpusFlags(cfg.Entities, cfg.Pages, cfg.CollectionSeed))
		fc <- booted{f, err}
	}()
	prepErr := r.prepare()
	b := <-fc
	r.fleet = b.f
	defer r.fleet.stop()
	if b.err != nil {
		return nil, b.err
	}
	if prepErr != nil {
		return nil, prepErr
	}
	r.admins = make(map[*proc]*remote, len(r.fleet.procs))
	for _, p := range r.fleet.procs {
		re, err := r.s.dial(ctx, p.url)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", p.role, err)
		}
		r.admins[p] = re
	}
	for _, c := range r.clients {
		c.base, c.m = r.fleet.front, &r.m
		probe, err := newSpeedProbe()
		if err != nil {
			return nil, fmt.Errorf("machine-speed probe: %w", err)
		}
		defer probe.close()
		c.probe = probe
	}
	r.warmUp(ctx)
	r.values["setup_s"] = (time.Since(start) - buildTime).Seconds()
	quietGeneratorGC()

	// ---- the timed window: every client, tracing off ----
	window, slice := cfg.Window, time.Duration(0)
	if cfg.Trace {
		// A traced run spends half its time on the same window (for the
		// counters) and a quarter each on an untraced and a traced slice.
		window, slice = cfg.Window/2, cfg.Window/4
	}
	var ingestDone sync.WaitGroup
	if r.donor != nil {
		r.ingest = &ingestStream{}
		n := int(cfg.Window.Seconds() * float64(cfg.IngestBatches))
		ingestDone.Add(1)
		go func() {
			defer ingestDone.Done()
			r.ingest.run(ctx, r.s, r.fleet.front, r.donor, cfg, n, r.tracer)
		}()
	}
	before, err := r.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	stopSampler := r.sampleEvery(sliceEvery)
	win := runPhase(ctx, r.clients, until(time.Now().Add(window)), nil)
	slices := stopSampler()
	after, err := r.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	r.count(win, "window")
	if win.ops() == 0 {
		return nil, fmt.Errorf("no operation completed in the window: %v", win.firstErr)
	}
	r.endToEnd(win, slices, before, after)
	r.untracedLayers(win, before, after)

	// ---- the traced run: one client, so containment is unambiguous ----
	var tr *tracer
	if cfg.Trace {
		one := r.clients[:1]
		plain := runPhase(ctx, one, until(time.Now().Add(slice)), nil)
		r.count(plain, "untraced slice")
		tr = newTracer()
		r.tt.active.Store(tr)
		traced := runPhase(ctx, one, until(time.Now().Add(slice)), tr)
		r.count(traced, "traced slice")
		ingestDone.Wait() // its last batches belong to the trace
		r.tt.active.Store(nil)
		r.tracedLayers(tr.snapshot(), plain, traced)
	}
	ingestDone.Wait()
	if r.ingest != nil {
		if err := r.liveLayers(ctx, before); err != nil {
			return nil, err
		}
	}

	// ---- outside the timed window: quality probe and oracles ----
	if err := r.s.learn(cfg.DomainEntities); err != nil {
		return nil, err
	}
	r.probeAndOracles(ctx)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	r.fleet.stop()
	if n := r.fleet.alive(); n > 0 {
		r.res.mismatch("%d l2qserve process(es) survived the run", n)
	}
	if cfg.Trace {
		if r.queries == nil { // harvest_remote draws none for its own traffic
			if err := r.drawQueries(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // the window's garbage is not the probes' to collect
		for k, v := range r.s.probes(r.queries, r.replayOps(cacheReplayOps)) {
			r.values[k] = v
		}
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json")); err != nil {
			return nil, err
		}
	}
	r.res.set(endToEnd, r.values)
	r.res.set(perLayer, r.values)
	return r.res, nil
}

// warmUp runs the operations that come before the first timed one:
// WarmJobs jobs per harvest client, or the search clients' warm sequences.
func (r *run) warmUp(ctx context.Context) {
	if r.cfg.Workload == "harvest_remote" {
		r.count(runPhase(ctx, r.clients, count(r.cfg.WarmJobs), nil), "warm-up")
		return
	}
	for i, c := range r.clients {
		c.seq = r.warm[i]
	}
	r.count(runPhase(ctx, r.clients, count(len(r.warm[0])), nil), "warm-up")
	for i, c := range r.clients {
		c.seq, c.pos = r.seqs[i], 0
	}
}

// tracer is the ingest stream's view of the active tracer: the stream
// starts before the traced slice does, so it looks the tracer up per
// batch.
func (r *run) tracer() *tracer {
	if r.tt == nil {
		return nil
	}
	return r.tt.active.Load()
}

// prepare builds everything the generator needs before the first
// operation: its own copy of the system and the workload's inputs.
func (r *run) prepare() error {
	cfg := r.cfg
	s, err := newSUT(cfg.Entities, cfg.Pages, cfg.CollectionSeed)
	if err != nil {
		return err
	}
	r.s = s
	r.clients = make([]*client, cfg.Clients)
	if cfg.Workload == "harvest_remote" {
		if err := s.learn(cfg.DomainEntities); err != nil {
			return err
		}
		lists := harvestJobs(cfg.Seed, cfg.Clients, len(s.entities), cfg.JobEntities, len(s.aspects))
		r.res.InputHash = fmt.Sprintf("%016x", hashJobs(lists))
		for i := range r.clients {
			r.clients[i] = &client{s: s, op: harvestOp, name: "job", jobs: lists[i]}
		}
		return nil
	}
	if err := r.drawQueries(); err != nil {
		return err
	}
	r.res.InputHash = fmt.Sprintf("%016x", hashSequences(r.seqs))
	for i := range r.clients {
		r.clients[i] = &client{s: s, op: searchOp, name: "search",
			queries: r.queries, seq: r.seqs[i], redial: cfg.RedialEvery}
	}
	if cfg.Workload == "search_live_ingest" {
		// Enough donor pages for the whole window, with a spare tenth.
		need := int(cfg.Window.Seconds()*float64(cfg.IngestRate)*1.1) + cfg.IngestRate
		ents := (need + cfg.Pages - 1) / cfg.Pages
		if r.donor, err = newDonor(ents, cfg.Pages, cfg.CollectionSeed+1); err != nil {
			return err
		}
	}
	return nil
}

// drawQueries builds the search population and each client's sequence.
func (r *run) drawQueries() error {
	cfg := r.cfg
	r.queries = r.s.queryPopulation(perEntity(cfg), cfg.CollectionSeed)
	if len(r.queries) < 2 {
		return fmt.Errorf("query population of %d is too small", len(r.queries))
	}
	r.seqs, r.warm = searchSequences(cfg.Seed, cfg.CollectionSeed, cfg.Clients, len(r.queries), cfg.WarmSearchOps)
	return nil
}

func perEntity(cfg config) int { return (cfg.QueryPop + cfg.Entities - 1) / cfg.Entities }

// cacheReplayOps is how many of the workload's first operations the
// cache-hit-ratio probe replays in process. A miss costs milliseconds at
// paper scale, so the replay is sized to about a second.
const cacheReplayOps = 4096

// replayOps interleaves the clients' sequences, as the server saw them.
func (r *run) replayOps(n int) []uint32 {
	out := make([]uint32, 0, n)
	for i := 0; len(out) < n && i < seqLen; i++ {
		for _, s := range r.seqs {
			out = append(out, s[i])
		}
	}
	return out
}

// count adds a phase's operations to attempted and failed.
func (r *run) count(p phase, what string) {
	r.res.Attempted += int64(p.ops())
	r.res.fail(p.failed, "%s: %d of %d operations failed, first: %v", what, p.failed, p.ops(), p.firstErr)
}

// generatorGCPercent is the generator's GC target for the measured part
// of a run.
const generatorGCPercent = 800

// quietGeneratorGC keeps the generator's own garbage collector out of the
// measurement. The generator's heap holds the oracle's copy of the
// collection (≈ 400 MB live at paper scale), which a real remote
// harvester does not have; at the default target every cycle marks it —
// half a second of CPU, five times in a ten-second harvest window, an
// eighth of the box, in bursts that land differently in every run. So the
// generator collects once, leaving every run's window the same heap to
// start from, and then lets the heap grow to generatorGCPercent: no cycle
// falls inside a window. What the harvester allocates is reported as
// proc.client.alloc_mb_per_op instead.
func quietGeneratorGC() {
	runtime.GC()
	debug.SetGCPercent(generatorGCPercent)
}

// sliceEvery is the length of the slices the window is cut into.
const sliceEvery = time.Second

// timeSlice is what happened between two samples of the window.
type timeSlice struct {
	seconds float64
	ops     float64
	opS     float64 // Σ latency of those operations, seconds
	probes  float64
	probeMs float64 // Σ time of those probe chunks
	cpuMs   float64 // utime+stime of every l2qserve process
}

// slowdown is the machine's speed during the slice: mean probe-chunk time
// over the reference; 0 if no chunk fell into the slice.
func (s timeSlice) slowdown() float64 {
	if s.probes == 0 {
		return 0
	}
	return s.probeMs / s.probes / refChunkMs
}

// sampleEvery starts reading the meter and the servers' CPU times every d,
// and returns the function that stops the sampler and yields the slices.
// The last one runs from the last tick to the stop and is shorter than d.
func (r *run) sampleEvery(d time.Duration) (stop func() []timeSlice) {
	type sample struct {
		at time.Time
		timeSlice
	}
	take := func() sample {
		s := sample{at: time.Now()}
		s.ops, s.opS = float64(r.m.ops.Load()), float64(r.m.opNs.Load())/1e9
		s.probes, s.probeMs = float64(r.m.probes.Load()), float64(r.m.probeNs.Load())/1e6
		for _, p := range r.fleet.procs {
			ms, _ := cpuMs(p.cmd.Process.Pid) // a dead server fails the window's operations
			s.cpuMs += ms
		}
		return s
	}
	r.m.slice.Store(0)
	samples := []sample{take()}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				samples = append(samples, take())
				r.m.slice.Store(int32(len(samples) - 1))
			case <-quit:
				return
			}
		}
	}()
	return func() []timeSlice {
		close(quit)
		<-done
		samples = append(samples, take())
		out := make([]timeSlice, 0, len(samples))
		for i := 1; i < len(samples); i++ {
			a, b := samples[i-1], samples[i]
			out = append(out, timeSlice{
				seconds: b.at.Sub(a.at).Seconds(),
				ops:     b.ops - a.ops, opS: b.opS - a.opS,
				probes: b.probes - a.probes, probeMs: b.probeMs - a.probeMs,
				cpuMs: b.cpuMs - a.cpuMs,
			})
		}
		return out
	}
}

// endToEnd derives what a user sees from the window (and
// server_cpu_ms_per_op, which was demoted to per-layer but is measured the
// same way).
//
// Timings are reported at reference machine speed (see speed.go): a
// slice's throughput is multiplied by the slice's slowdown and an
// operation's latency divided by the slowdown of the slice it ended in.
// Throughput is what the closed-loop clients complete per second of
// operating — the probe's own pauses are not operating time — and, like
// server CPU per operation, an interquartile mean over the window's
// one-second slices, not a total: a garbage-collection cycle of a server
// (each marks several hundred MB) moves a total by several percent from
// run to run but only a slice or two.
func (r *run) endToEnd(win phase, slices []timeSlice, before, after snapshot) {
	var all timeSlice
	for _, s := range slices {
		all.probes += s.probes
		all.probeMs += s.probeMs
	}
	whole := all.slowdown()
	if whole == 0 {
		whole = 1 // a window too short for a single probe chunk
	}
	slow := make([]float64, len(slices))
	var rate, rawRate, cpuPerOp, slows []float64
	for i, s := range slices {
		if slow[i] = s.slowdown(); slow[i] == 0 {
			slow[i] = whole
		}
		if s.seconds >= sliceEvery.Seconds()/2 && s.ops > 0 && s.opS > 0 {
			perS := float64(len(r.clients)) * s.ops / s.opS
			rawRate = append(rawRate, perS)
			rate = append(rate, perS*slow[i])
			cpuPerOp = append(cpuPerOp, s.cpuMs/s.ops)
			slows = append(slows, slow[i])
		}
	}
	ops := float64(win.ops())
	adj := make([]float64, len(win.latMs))
	for j, ms := range win.latMs {
		adj[j] = ms / slow[win.latSlice[j]]
	}
	lat, rawLat := summarize(adj), summarize(win.latMs)
	var cpu, hwm float64
	for _, p := range r.fleet.procs {
		cpu += after.cpu[p] - before.cpu[p]
		if v, err := rssMb(p.cmd.Process.Pid, "VmHWM"); err == nil {
			hwm += v
		}
	}
	if len(rate) > 0 {
		r.values["ops_per_s"] = midmean(rate)
		r.values["raw.ops_per_s"] = midmean(rawRate)
		r.values["server_cpu_ms_per_op"] = midmean(cpuPerOp)
		r.values["machine.slowdown"] = midmean(slows)
	} else { // a window shorter than one slice
		r.values["raw.ops_per_s"] = ops / win.wall.Seconds()
		r.values["ops_per_s"] = ops / win.wall.Seconds() * whole
		r.values["server_cpu_ms_per_op"] = cpu / ops
		r.values["machine.slowdown"] = whole
	}
	r.res.Samples["ops_per_s"] = sampleInfo{N: len(rate)}
	r.res.Samples["server_cpu_ms_per_op"] = sampleInfo{N: len(rate)}
	r.res.Samples["machine.slowdown"] = sampleInfo{N: int(all.probes)}
	r.values["op_p50_ms"] = lat.P50
	r.values["raw.op_p50_ms"] = rawLat.P50
	r.res.Samples["op_p50_ms"] = sampleInfo{N: lat.N}
	r.values["server_peak_rss_mb"] = hwm
}

// untracedLayers derives the U metrics: counters, /proc and
// /api/v1/metrics deltas over the same window.
func (r *run) untracedLayers(win phase, before, after snapshot) {
	v, ops := r.values, float64(win.ops())
	lat := summarize(win.latMs)
	tail := "webapi.search_op_p99_ms"
	if r.cfg.Workload == "harvest_remote" {
		tail = "webapi.harvest_job_p99_ms"
	}
	v[tail] = lat.Tail
	r.res.Samples[tail] = sampleInfo{N: lat.N, TailQ: lat.TailQ}
	v["webapi.client.page_fetches_per_op"] = float64(win.counters.PageFetches) / ops
	v["webapi.client.retries"] = float64(win.counters.Retries)
	if win.dials > 0 {
		v["webapi.client.dial_ms"] = float64(win.dialTime) / float64(time.Millisecond) / float64(win.dials)
	}

	v["proc.client.cpu_ms_per_op"] = (after.selfCPU - before.selfCPU) / ops
	v["proc.client.alloc_mb_per_op"] = (after.selfMB - before.selfMB) / ops
	if rss, err := rssMb(os.Getpid(), "VmRSS"); err == nil {
		v["proc.client.rss_mb"] = rss
	}
	var nodeCPU []float64
	var allocs, allocBytes, heap, pause float64
	for _, p := range r.fleet.procs {
		d := after.cpu[p] - before.cpu[p]
		rss, _ := rssMb(p.cmd.Process.Pid, "VmRSS") // 0 if the process is gone; the window's failures say so
		switch p.role {
		case "node":
			nodeCPU = append(nodeCPU, d)
			v["proc.nodes.cpu_ms_per_op"] += d / ops
			v["proc.nodes.rss_mb"] += rss
		default:
			v["proc."+p.role+".cpu_ms_per_op"] = d / ops
			v["proc."+p.role+".rss_mb"] = rss
		}
		a, b := after.srv[p], before.srv[p]
		allocs += float64(a.AllocObjects - b.AllocObjects)
		allocBytes += float64(a.AllocBytes - b.AllocBytes)
		heap += a.HeapInuseMB
		pause = max(pause, a.GCPauseP99Ms)
	}
	if len(nodeCPU) > 0 {
		var sum float64
		for _, c := range nodeCPU {
			sum += c
		}
		if sum > 0 {
			v["proc.nodes.cpu_max_over_mean"] = slices.Max(nodeCPU) / (sum / float64(len(nodeCPU)))
		}
	}
	front := r.fleet.procs[len(r.fleet.procs)-1] // the process the clients talk to starts last
	fa, fb := after.srv[front], before.srv[front]
	if reqs := float64(fa.Requests - fb.Requests); reqs > 0 {
		v["server.allocs_per_request"] = allocs / reqs
		v["server.alloc_kb_per_request"] = allocBytes / 1024 / reqs
	}
	v["server.gc_pause_p99_ms"] = pause
	v["server.heap_inuse_mb"] = heap
	if fa.Cluster {
		v["cluster.scatters_per_op"] = float64(fa.ClusterScatters-fb.ClusterScatters) / ops
		v["cluster.hedges"] = float64(fa.ClusterHedges - fb.ClusterHedges)
		v["cluster.partials"] = float64(fa.ClusterPartials - fb.ClusterPartials)
		v["cluster.node_errors"] = float64(fa.ClusterNodeErrors - fb.ClusterNodeErrors)
	}
}

// liveLayers reports the ingest stream and the live engine's generational
// counters once the stream has ended.
func (r *run) liveLayers(ctx context.Context, before snapshot) error {
	g, v := r.ingest, r.values
	r.res.Attempted += int64(g.batches)
	r.res.fail(g.failed, "ingest: %d of %d batches failed or took longer than %v, first error: %v",
		g.failed, g.batches, r.cfg.IngestLagLimit, g.err)
	lag := summarize(g.lagMs)
	v["webapi.ingest_lag_p50_ms"] = lag.P50
	v["webapi.ingest_lag_p99_ms"] = lag.Tail
	late := summarize(g.lateMs) // how late the generator itself ran
	v["webapi.ingest_sent_late_p99_ms"] = late.Tail
	r.res.Samples["webapi.ingest_sent_late_p99_ms"] = sampleInfo{N: late.N, TailQ: late.TailQ}
	r.res.Samples["webapi.ingest_lag_p50_ms"] = sampleInfo{N: lag.N}
	r.res.Samples["webapi.ingest_lag_p99_ms"] = sampleInfo{N: lag.N, TailQ: lag.TailQ}
	front := r.fleet.procs[len(r.fleet.procs)-1]
	end, err := readServerCounters(ctx, r.admins[front])
	if err != nil {
		return err
	}
	b := before.srv[front]
	v["search.live.segments_end"] = float64(end.LiveSegments)
	v["search.live.compactions"] = float64(end.LiveCompactions - b.LiveCompactions)
	v["search.live.epoch_invalidations"] = float64(end.LiveInvalidations - b.LiveInvalidations)
	if g.acked > 0 {
		v["search.live.write_amp"] = float64(end.LiveDocsCompacted-b.LiveDocsCompacted) / float64(g.acked)
	}
	return nil
}

// tracedLayers derives the T metrics from the spans of the traced slice
// and the tracing overhead from the two one-client slices.
func (r *run) tracedLayers(spans []span, plain, traced phase) {
	for k, v := range spanMetrics(spans) {
		r.values[k] = v
	}
	for _, route := range []string{"search", "page", "collfreq", "ingest"} {
		var ms []float64
		for _, s := range spans {
			if s.Name == "http:"+route {
				ms = append(ms, float64(s.End-s.Start)/1e6)
			}
		}
		if len(ms) > 0 {
			name := "webapi.http." + route + "_rtt_p50_ms"
			sm := summarize(ms)
			r.values[name] = sm.P50
			r.res.Samples[name] = sampleInfo{N: sm.N}
		}
	}
	if plain.ops() > 0 && traced.ops() > 0 {
		perPlain := plain.wall.Seconds() / float64(plain.ops())
		perTraced := traced.wall.Seconds() / float64(traced.ops())
		r.values["trace.overhead_share"] = perTraced/perPlain - 1
	}
}

// spanMetrics turns the traced slice's spans into per-layer numbers.
// Self time is a span's duration minus what its children cover.
func spanMetrics(spans []span) map[string]float64 {
	isHTTP := func(c span) bool { return strings.HasPrefix(c.Name, "http:") }
	self := selfTimes(spans, nil)
	lessHTTP := selfTimes(spans, isHTTP)
	rootName := map[int]string{}
	for _, s := range spans {
		if s.Parent < 0 {
			rootName[s.Op] = s.Name
		}
	}
	// Per step: when its select ended and when its last round trip did.
	selEnd := map[int]int64{}
	httpEnd := map[int]int64{}
	var ops, steps, yCalls float64
	var opNs, selectNs, candNs, candN, yNs, residualNs, retrieveNs, ingestNs, reqs, bytes float64
	for i, s := range spans {
		d := float64(s.End - s.Start)
		switch {
		case s.Parent < 0 && s.Name != "ingest":
			ops++
			opNs += d
			residualNs += float64(self[i])
		case s.Name == "step":
			steps++
			residualNs += float64(self[i])
		case s.Name == "select":
			selectNs += float64(lessHTTP[i])
			selEnd[s.Parent] = s.End
		case s.Name == "candidates":
			candNs += d
			candN += float64(s.N)
		case s.Name == "y":
			yCalls++
			yNs += d
		case isHTTP(s):
			if s.Parent >= 0 && spans[s.Parent].Name == "step" {
				httpEnd[s.Parent] = max(httpEnd[s.Parent], s.End)
			}
			if rootName[s.Op] != "ingest" && s.Name != "http:metrics" {
				reqs++
				bytes += float64(s.N)
			}
		}
	}
	for i, s := range spans {
		if s.Name != "step" {
			continue
		}
		fetched := max(httpEnd[i], selEnd[i])
		if selEnd[i] > 0 {
			retrieveNs += float64(fetched - selEnd[i])
		}
		if fetched > 0 && s.End > fetched {
			ingestNs += float64(s.End - fetched)
		}
	}
	out := map[string]float64{}
	if ops == 0 {
		return out
	}
	out["webapi.client.decode_ms_per_op"] = residualNs / ops / 1e6
	out["webapi.http.requests_per_op"] = reqs / ops
	out["webapi.http.bytes_per_op"] = bytes / ops
	out["classify.y_calls_per_job"] = yCalls / ops
	if yCalls > 0 {
		out["classify.y_us_per_call"] = yNs / yCalls / 1e3
	}
	if steps > 0 {
		out["core.select_ms_per_step"] = selectNs / steps / 1e6
		out["core.select_share"] = selectNs / opNs
		out["core.candidates_ms_per_step"] = candNs / steps / 1e6
		out["core.candidates_per_step"] = candN / steps
		out["core.infer_ms_per_step"] = (selectNs - candNs) / steps / 1e6
		out["core.ingest_ms_per_step"] = ingestNs / steps / 1e6
		out["webapi.client.retrieve_ms_per_step"] = retrieveNs / steps / 1e6
	}
	return out
}
