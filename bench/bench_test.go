package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndTailRule(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// The tail is the highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0.5}, {99, 0.5}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {50000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sm := summarize([]float64{5, 1, 4, 2, 3})
	if sm.N != 5 || sm.P50 != 3 || sm.TailQ != 0.5 {
		t.Errorf("summarize = %+v", sm)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := iqrShare(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([3, 3, 4, 10, 12], n=4) == [3.0, 4.0, 11.0]
	if got := iqrShare([]float64{3, 3, 4, 10, 12}); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("iqrShare = %v, want 2", got)
	}
	if got := iqrShare([]float64{7, 7, 7}); got != 0 {
		t.Errorf("iqrShare of a constant = %v", got)
	}
}

func TestMidmeanIgnoresOutliersAndMovesSmoothly(t *testing.T) {
	if got := midmean(nil); got != 0 {
		t.Errorf("empty midmean = %v", got)
	}
	if got := midmean([]float64{5}); got != 5 {
		t.Errorf("midmean of one value = %v", got)
	}
	// Eight values: the middle four count, the outliers do not.
	if got := midmean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("midmean = %v, want 3.5", got)
	}
	// Ten values: the middle five — two of them for half their weight.
	if got := midmean([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("midmean(1..10) = %v, want 5.5", got)
	}
	// Two levels with the step moving through the window: the median
	// jumps, the midmean moves by at most one slice's weight per slice.
	prev := 0.0
	for low := 0; low <= 12; low++ {
		v := make([]float64, 12)
		for i := range v {
			v[i] = 3
			if i < low {
				v[i] = 2
			}
		}
		got := midmean(v)
		if low > 0 && math.Abs(got-prev) > 1.0/6+1e-12 {
			t.Errorf("%d low slices of 12: midmean jumped from %v to %v", low, prev, got)
		}
		prev = got
	}
}

func TestTimingsAreReportedAtReferenceSpeed(t *testing.T) {
	cfg := paperScale()
	cfg.Workload = "search_frozen"
	r := &run{cfg: cfg, res: newResult(cfg, 0), values: map[string]float64{}, fleet: &fleet{}}
	r.clients = []*client{{}}
	// Four one-second slices; the machine runs at reference speed in the
	// first two and at half speed (chunks take twice refChunkMs) in the
	// last two, where every operation accordingly takes twice as long.
	var slices []timeSlice
	var win phase
	for i := 0; i < 4; i++ {
		slow := 1.0
		if i >= 2 {
			slow = 2
		}
		ops := 400 / slow
		slices = append(slices, timeSlice{seconds: 1, ops: ops, opS: 0.8, probes: 50, probeMs: 50 * refChunkMs * slow, cpuMs: 100})
		for k := 0; k < int(ops); k++ {
			win.latMs = append(win.latMs, 2*slow)
			win.latSlice = append(win.latSlice, int32(i))
		}
	}
	r.endToEnd(win, slices, snapshot{}, snapshot{})
	near := func(name string, want float64) {
		t.Helper()
		if got := r.values[name]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("ops_per_s", 500) // 400 ops per 0.8 s of operating, in every slice once normalised
	near("op_p50_ms", 2)
	near("raw.ops_per_s", 375)
	near("raw.op_p50_ms", 2) // 800 of the 1 200 operations take 2 ms
	near("machine.slowdown", 1.5)
}

func TestInputsFollowTheSeed(t *testing.T) {
	draw := func(seed uint64) (seqs, warm [][]uint32) { return searchSequences(seed, 2016, 2, 1000, 100) }
	seqs, warm := draw(7)
	a := hashSequences(seqs)
	if again, _ := draw(7); a != hashSequences(again) {
		t.Error("same seed, different search sequences")
	}
	other, otherWarm := draw(8)
	if a == hashSequences(other) {
		t.Error("different seed, same search sequences")
	}
	if !reflect.DeepEqual(warm, otherWarm) || len(warm[0])+len(warm[1]) != 100 {
		t.Error("the warm-up sequence follows the seed, or is not the 100 hottest queries once each")
	}
	if reflect.DeepEqual(seqs[0], seqs[1]) {
		t.Error("both clients drew the same sequence")
	}
	for _, op := range seqs[0] {
		if op >= 1000 {
			t.Fatalf("op %d outside the population", op)
		}
	}

	j := hashJobs(harvestJobs(7, 2, 40, 20, 7))
	if k := hashJobs(harvestJobs(7, 2, 40, 20, 7)); j != k {
		t.Error("same seed, different job lists")
	}
	if k := hashJobs(harvestJobs(8, 2, 40, 20, 7)); j == k {
		t.Error("different seed, same job lists")
	}
	lists := harvestJobs(7, 2, 40, 20, 7)
	if n := len(lists[0]) + len(lists[1]); n != 20*7 {
		t.Errorf("job list has %d jobs, want every second-half entity × aspect = %d", n, 20*7)
	}
	for _, l := range lists {
		for _, jb := range l {
			if jb.Entity < 20 || jb.Entity >= 40 {
				t.Fatalf("job on entity %d, outside the second half", jb.Entity)
			}
		}
	}

	// The probe does not follow the seed: it has no seed to follow.
	p := probeJobs(4, 40, 7)
	if len(p) != 4*7 || p[0].Entity != 20 || p[len(p)-1].Entity != 35 {
		t.Errorf("probeJobs = %v", p)
	}
}

func TestQueryPopulationBelongsToTheCollection(t *testing.T) {
	s, err := newSUT(12, 8, 2016)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.queryPopulation(5, 2016), s.queryPopulation(5, 2016)
	if len(a) != 12*5 || !reflect.DeepEqual(a, b) {
		t.Fatalf("population of %d queries is not reproducible", len(a))
	}
	for _, q := range a {
		if len(q.Seed) == 0 || len(q.Terms) < 1 || len(q.Terms) > 3 {
			t.Fatalf("malformed query %+v", q)
		}
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "http:a", Parent: 0, Start: 10, End: 40},
		{Name: "http:b", Parent: 0, Start: 30, End: 60}, // overlaps a: union is [10, 60)
		{Name: "select", Parent: 0, Start: 70, End: 90},
		{Name: "http:c", Parent: 3, Start: 75, End: 80},
		{Name: "late", Parent: 0, Start: 95, End: 120}, // clipped to the parent
	}
	got := selfTimes(spans, nil)
	want := []int64{100 - 50 - 20 - 5, 30, 30, 15, 5, 25}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	onlyHTTP := selfTimes(spans, func(c span) bool { return strings.HasPrefix(c.Name, "http:") })
	if onlyHTTP[0] != 50 || onlyHTTP[3] != 15 {
		t.Errorf("selfTimes less HTTP = %v", onlyHTTP)
	}
}

func TestTracerParentsAndSpanMetrics(t *testing.T) {
	var off *tracer
	off.end(off.begin("x")) // a nil tracer is the untraced state
	if off.beginOp("x") != -1 {
		t.Error("nil tracer returned a span")
	}

	tr := newTracer()
	op := tr.beginOp("job")
	st := tr.begin("step")
	sel := tr.begin("select")
	h1 := tr.detached("http:collfreq", -1) // parent: innermost open span
	tr.endDetached(h1, 10)
	tr.end(sel)
	h2 := tr.detached("http:page", -1)
	tr.endDetached(h2, 20)
	tr.end(st)
	tr.end(op)
	ing := tr.detachedRoot("ingest")
	h3 := tr.detached("http:ingest", ing)
	tr.endDetached(h3, 30)
	tr.endDetached(ing, 0)

	spans := tr.snapshot()
	parents := map[string]int{}
	for _, s := range spans {
		parents[s.Name] = s.Parent
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	want := map[string]int{"job": -1, "step": op, "select": st, "http:collfreq": sel, "http:page": st, "ingest": -1, "http:ingest": ing}
	if !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}
	if spans[h3].Op == spans[op].Op {
		t.Error("the ingest batch shares the client operation's identifier")
	}
	m := spanMetrics(spans)
	if m["webapi.http.requests_per_op"] != 2 || m["webapi.http.bytes_per_op"] != 30 {
		t.Errorf("requests/bytes per op = %v/%v, want 2/30 (ingest traffic is not the client's)",
			m["webapi.http.requests_per_op"], m["webapi.http.bytes_per_op"])
	}
	if _, ok := m["core.select_ms_per_step"]; !ok {
		t.Error("no select time from a trace with a step")
	}
}

func def(name string) metricDef {
	for _, d := range endToEnd {
		if d.Name == name {
			return d
		}
	}
	panic("no end-to-end metric " + name)
}

func TestJudgeAppliesDirectionAndBound(t *testing.T) {
	ten := func(v float64) []float64 { return []float64{v, v, v} }
	cases := []struct {
		metric    string
		a, b      float64
		regressed bool
	}{
		{"ops_per_s", 100, 76, false}, // higher is better: 24 % lower is inside 25 %
		{"ops_per_s", 100, 74, true},
		{"ops_per_s", 100, 150, false},
		{"op_p50_ms", 2.0, 2.49, false}, // lower is better
		{"op_p50_ms", 2.0, 2.51, true},
		{"op_p50_ms", 2.0, 1.0, false},
		{"setup_s", 8, 9.9, false},
		{"setup_s", 8, 10.1, true},
		{"harvest_recall_at_budget", 0.8617, 0.8617, false}, // exact metrics: any loss regresses
		{"harvest_recall_at_budget", 0.8617, 0.8600, true},
		{"harvest_recall_at_budget", 0.8617, 0.8700, false},
		{"harvest_rel_pages_per_query", 0.7143, 0.7128, true},
	}
	for _, c := range cases {
		v := judge(def(c.metric), "w", ten(c.a), ten(c.b))
		if v.Regressed != c.regressed {
			t.Errorf("%s %v → %v: regressed = %v, want %v (change %+.4f, bound %v)",
				c.metric, c.a, c.b, v.Regressed, c.regressed, v.Change, v.Bound)
		}
	}
	// Inside the bound but with a reference spread wider than it: unresolved.
	v := judge(def("ops_per_s"), "w", []float64{60, 100, 100, 100, 145}, ten(99))
	if v.Regressed || !v.Unresolved {
		t.Errorf("wide reference spread: %+v", v)
	}
}

func sampleResult(workload string, seed uint64, ops float64) result {
	cfg := paperScale()
	cfg.Workload, cfg.Seed, cfg.Window = workload, seed, 10*time.Second
	r := newResult(cfg, 0.5)
	r.InputHash = "00ff"
	r.Attempted = 1000
	r.Samples["op_p50_ms"] = sampleInfo{N: 990}
	values := map[string]float64{"setup_s": 8.5, "ops_per_s": ops, "op_p50_ms": 2.25,
		"harvest_rel_pages_per_query": 0.7143, "harvest_recall_at_budget": 0.8617,
		"server_peak_rss_mb": 825.5}
	r.set(endToEnd, values)
	r.set(perLayer, values)
	return *r
}

func TestResultRoundTripAndContractLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	a, b := sampleResult("search_frozen", 1, 661.1), sampleResult("harvest_remote", 2, 63.9)
	b.fail(2, "two ops failed")
	for _, r := range []result{a, b} {
		if err := r.appendTo(path); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []result{a, b}) {
		t.Errorf("round trip changed the results:\n got %+v\nwant %+v", got, []result{a, b})
	}

	var buf bytes.Buffer
	if err := a.print(&buf, endToEnd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", last)
	}
	var metrics map[string]metric
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) || metrics["ops_per_s"] != (metric{661.1, "1/s"}) {
		t.Errorf("metrics = %v", metrics)
	}
	for _, d := range endToEnd {
		if !strings.Contains(buf.String(), d.Name) {
			t.Errorf("metric %s is not printed by name", d.Name)
		}
	}
}

func TestCompareExitsNonZeroOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops float64, failed int) string {
		p := filepath.Join(dir, name)
		for seed := uint64(0); seed < 5; seed++ {
			r := sampleResult("search_frozen", seed, ops+float64(seed))
			r.fail(failed, "injected")
			if err := r.appendTo(p); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	ref := write("a.json", 660, 0)
	var out bytes.Buffer
	if code := compareMain([]string{ref, write("same.json", 655, 0)}, &out); code != 0 {
		t.Errorf("equal sides: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ops_per_s") || !strings.Contains(out.String(), "search_frozen") {
		t.Errorf("no (workload, metric) row in:\n%s", out.String())
	}
	if code := compareMain([]string{ref, write("slow.json", 480, 0)}, &out); code != 1 {
		t.Errorf("27 %% slower: exit %d", code)
	}
	if code := compareMain([]string{ref, write("failing.json", 660, 3)}, &out); code != 1 {
		t.Errorf("higher failed share: exit %d", code)
	}
	if code := compareMain([]string{ref}, &out); code != 2 {
		t.Errorf("bad usage: exit %d", code)
	}
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json, which the driver
// reads, equal to the table the program reports from.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, table has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, table has %+v", i, doc.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, table has %d", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		m := doc.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.Higher) || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v, table has %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && !d.Higher)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, table has %d", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		m := doc.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.Higher) {
			t.Errorf("per-layer metric %d: %+v, table has %+v", i, m, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %s: duplicate, or name/unit too long", d.Name)
		}
		seen[d.Name] = true
	}
}

// smokeScale shrinks the collection and every window so that the whole
// real-process path runs in seconds.
func smokeScale() config {
	return config{
		Entities: 24, Pages: 16, CollectionSeed: 2016,
		Clients: 1, DomainEntities: 8, JobEntities: 12, ProbeEntities: 4,
		QueryPop: 480, RedialEvery: 64,
		WarmSearchOps: 64, WarmJobs: 2,
		OracleJobs: 8, OracleOps: 16,
		IngestRate: 100, IngestBatches: 10, IngestLagLimit: time.Second,
		Window: 2 * time.Second,
	}
}

// TestSmoke runs all four workloads (the three BENCHMARK.json names and
// the ungated one) against real l2qserve processes,
// untraced and traced, and checks that every named metric is reported,
// nothing failed and no process survived. Gated like the L2Q_SOAK tests:
// it builds a binary and takes about half a minute.
func TestSmoke(t *testing.T) {
	if os.Getenv("L2Q_BENCH_SMOKE") == "" {
		t.Skip("set L2Q_BENCH_SMOKE=1 to run the real-process smoke")
	}
	ctx := context.Background()
	dir := t.TempDir()
	bin, _, err := buildServer(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(workloads[:len(workloads):len(workloads)], ungated...) {
		for _, traced := range []bool{false, true} {
			cfg := smokeScale()
			cfg.Workload, cfg.Seed, cfg.Trace, cfg.OutDir = w.Name, 7, traced, dir
			res, err := runWorkload(ctx, cfg, bin, dir, time.Now(), 0)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, failed %d of %d: %v",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, d.Name)
				}
			}
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s trace=%v: end-to-end metric %s = %v, want > 0",
						w.Name, traced, d.Name, res.Metrics[d.Name].Value)
				}
			}
			if !traced {
				continue
			}
			expect := map[string]bool{
				"core.select_share":              w.Name == "harvest_remote",
				"proc.coordinator.cpu_ms_per_op": w.Name == "search_cluster3",
				"cluster.scatters_per_op":        w.Name == "search_cluster3",
				"webapi.ingest_lag_p50_ms":       w.Name == "search_live_ingest",
				"search.live.segments_end":       w.Name == "search_live_ingest",
				"webapi.http.page_rtt_p50_ms":    true,
				"search.score_us_miss":           true,
			}
			for name, nonZero := range expect {
				if got := res.Metrics[name].Value != 0; got != nonZero {
					t.Errorf("%s: %s = %v, want non-zero: %v", w.Name, name, res.Metrics[name].Value, nonZero)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("%s: no trace file: %v", w.Name, err)
			}
		}
	}
}
