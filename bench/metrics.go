package main

// metricDef is one named metric of the benchmark: its unit, its direction
// and, for an end-to-end metric, the share of the reference median by
// which it may worsen before `bench compare` calls it a regression.
// BENCHMARK.json at the repository root lists the same table
// (TestBenchmarkJSONMatchesTable keeps the two equal).
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // true: higher is better
	Bound  float64
}

// exactBound marks a metric that repeats exactly on a fixed collection:
// the smallest possible change (one page on one probe job) moves it by
// more than this share, so any worsening is a regression.
const exactBound = 0.001

// timingBound is the bound of everything measured in seconds or bytes:
// the largest the driver's contract allows. On the shared 2-vCPU box the
// timings repeat within 2–7 % (interquartile range over ten runs) on a
// quiet day once they are normalised to reference machine speed (see
// speed.go) and within 5–10 % while the neighbours are busy, when the raw
// ones spread 20–30 %; one l2qserve process in three also scores a
// cache-missing query a third slower than the next for as long as it
// lives (the index's shard hash is seeded per process). A bound of three
// times the noise keeps a regression verdict from being noise.
const timingBound = 0.25

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; an operation is a harvest job at budget 5 on
// harvest_remote and a search plus the download of its top-5 pages on
// the three search_* workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", false, timingBound},
	{"ops_per_s", "1/s", true, timingBound},
	{"op_p50_ms", "ms", false, timingBound},
	{"harvest_rel_pages_per_query", "pages/query", true, exactBound},
	{"harvest_recall_at_budget", "ratio", true, exactBound},
	{"server_peak_rss_mb", "MB", false, timingBound},
}

// perLayer lists the single-layer metrics of the traced run, in the
// order README.md's interaction table discusses them. Its timings are as
// measured, not normalised; machine.slowdown says how fast the box was.
// A metric that does not apply to a workload (core.* on search_*,
// cluster.* off the cluster) reads 0 there.
var perLayer = []metricDef{
	// T: spans of the one-client traced slice.
	{"core.select_ms_per_step", "ms", false, 0},
	{"core.select_share", "ratio", false, 0},
	{"core.candidates_ms_per_step", "ms", false, 0},
	{"core.candidates_per_step", "count", false, 0},
	{"core.infer_ms_per_step", "ms", false, 0},
	{"core.ingest_ms_per_step", "ms", false, 0},
	{"classify.y_calls_per_job", "count", false, 0},
	{"classify.y_us_per_call", "us", false, 0},
	{"webapi.client.retrieve_ms_per_step", "ms", false, 0},
	{"webapi.client.decode_ms_per_op", "ms", false, 0},
	{"webapi.http.search_rtt_p50_ms", "ms", false, 0},
	{"webapi.http.page_rtt_p50_ms", "ms", false, 0},
	{"webapi.http.collfreq_rtt_p50_ms", "ms", false, 0},
	{"webapi.http.ingest_rtt_p50_ms", "ms", false, 0},
	{"webapi.http.requests_per_op", "count", false, 0},
	{"webapi.http.bytes_per_op", "B", false, 0},
	{"trace.overhead_share", "ratio", false, 0},
	// U: counters, /proc and /api/v1/metrics deltas over the untraced
	// window of the same run.
	{"machine.slowdown", "ratio", false, 0},
	{"raw.ops_per_s", "1/s", true, 0},
	{"raw.op_p50_ms", "ms", false, 0},
	{"webapi.client.page_fetches_per_op", "count", false, 0},
	{"webapi.client.retries", "count", false, 0},
	{"webapi.client.dial_ms", "ms", false, 0},
	{"webapi.search_op_p99_ms", "ms", false, 0},
	{"webapi.harvest_job_p99_ms", "ms", false, 0},
	{"webapi.ingest_lag_p50_ms", "ms", false, 0},
	{"webapi.ingest_lag_p99_ms", "ms", false, 0},
	{"webapi.ingest_sent_late_p99_ms", "ms", false, 0},
	{"server_cpu_ms_per_op", "ms", false, 0},
	{"proc.client.cpu_ms_per_op", "ms", false, 0},
	{"proc.client.alloc_mb_per_op", "MB", false, 0},
	{"proc.l2qserve.cpu_ms_per_op", "ms", false, 0},
	{"proc.coordinator.cpu_ms_per_op", "ms", false, 0},
	{"proc.nodes.cpu_ms_per_op", "ms", false, 0},
	{"proc.nodes.cpu_max_over_mean", "ratio", false, 0},
	{"proc.client.rss_mb", "MB", false, 0},
	{"proc.l2qserve.rss_mb", "MB", false, 0},
	{"proc.coordinator.rss_mb", "MB", false, 0},
	{"proc.nodes.rss_mb", "MB", false, 0},
	{"server.allocs_per_request", "count", false, 0},
	{"server.alloc_kb_per_request", "kB", false, 0},
	{"server.gc_pause_p99_ms", "ms", false, 0},
	{"server.heap_inuse_mb", "MB", false, 0},
	{"search.live.segments_end", "count", false, 0},
	{"search.live.compactions", "count", false, 0},
	{"search.live.write_amp", "ratio", false, 0},
	{"search.live.epoch_invalidations", "count", false, 0},
	{"cluster.scatters_per_op", "count", false, 0},
	{"cluster.hedges", "count", false, 0},
	{"cluster.partials", "count", false, 0},
	{"cluster.node_errors", "count", false, 0},
	// P: fixed-input probes of public functions in the generator process.
	{"search.score_us_miss", "us", false, 0},
	{"search.score_ns_hit", "ns", false, 0},
	{"search.cache_hit_ratio", "ratio", true, 0},
	{"search.merge_topk_us", "us", false, 0},
	{"search.index_build_s", "s", false, 0},
	{"html.render_us_per_page", "us", false, 0},
	{"html.parse_us_per_page", "us", false, 0},
	{"textproc.tokenize_us_per_page", "us", false, 0},
	{"textproc.ngrams_us_per_page", "us", false, 0},
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

// workloads are the ones BENCHMARK.json names and the driver gates.
var workloads = []workloadDef{
	{"harvest_remote", "The paper's loop through the real boundary: fresh dial, L2QBAL at budget 5 per (entity, aspect) job against one frozen l2qserve; client-side selection (core, graph) does most of the work."},
	{"search_frozen", "Zipf search+download traffic over 8x the query cache against one frozen l2qserve: scorer, HTML render/parse, wire codec and HTTP do the work, core is idle; hit and miss paths both run."},
	{"search_cluster3", "The same search traffic against a coordinator over 3 node processes, replicas 2: scatter/merge, page proxying and per-partition search, which the other two bypass."},
}

// ungated workloads run by hand (`--workload NAME`) and in the baseline,
// but the driver does not gate them. search_live_ingest: with the query
// cache emptied twenty times a second nearly every search scores the
// whole index, and how fast a process does that is a coin it flips at
// start-up (the index's shard hash is seeded per process: cache-missing
// operations cost 2.5 or 3.4–4.9 ms of server CPU for as long as the process
// lives). Ten runs of the same code land on both sides, 13–18 % apart
// between their quartiles on a quiet box — too close to the largest bound
// the contract allows for the acceptance check to pass reliably.
var ungated = []workloadDef{
	{"search_live_ingest", "The same search traffic against l2qserve -live while an open-loop stream ingests 400 pages/s: writes beside reads (memtable, seal, compaction, epoch-keyed cache)."},
}
