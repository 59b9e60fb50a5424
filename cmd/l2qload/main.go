// Command l2qload drives a live l2qserve with sustained mixed traffic —
// searches in both codecs (JSON and the L2QWIR1 binary frames), raw page
// downloads, metrics scrapes, synchronous streaming harvests, and the
// async jobs API — and reports per-endpoint p50/p99/p999 latency, QPS,
// and server-side allocations per request as one JSON line (the
// BENCH_load.json trajectory artifact).
//
// It is also the admission-control verifier: pointed at a server with
// -maxinflight set and driven past saturation (more workers than slots),
// it asserts that overload degrades gracefully — every shed response is
// the 429 retryable error envelope, no submitted job is lost, and the
// p999 of served requests stays bounded — instead of collapsing into
// queueing convoys.
//
// With no -addr it self-serves: it builds a synthetic corpus, starts an
// in-process server (admission control included), and drives that —
// the zero-setup mode CI's load smoke uses.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/synth"
	"l2q/internal/textproc"
	"l2q/internal/types"
	"l2q/internal/webapi"
)

func main() {
	var (
		addr     = flag.String("addr", "", "target server base URL (e.g. http://127.0.0.1:8080); empty self-serves an in-process server")
		duration = flag.Duration("duration", 30*time.Second, "traffic window")
		workers  = flag.Int("workers", 32, "concurrent closed-loop workers")
		mix      = flag.String("mix", "search=55,page=25,metrics=5,harvest=5,jobs=10", "op mix weights")
		codec    = flag.String("codec", "mixed", "search codec: mixed, json or binary")
		aspect   = flag.String("aspect", "", "harvest aspect (self-serve picks one automatically; empty against -addr disables harvest/jobs ops)")
		out      = flag.String("out", "", "also write the JSON report to this file (stdout always gets it)")
		maxInFl  = flag.Int("maxinflight", 0, "self-serve: server admission bound (shed 429 past this many in flight)")
		entities = flag.Int("entities", 30, "self-serve corpus entities")
		pages    = flag.Int("pages", 20, "self-serve pages per entity")
		seed     = flag.Uint64("seed", 2016, "self-serve corpus seed")
		domain   = flag.String("domain", "researchers", "self-serve corpus domain")
		nQueries = flag.Int("nqueries", 3, "per-harvest query budget")
		assert   = flag.Bool("assertshed", false, "require shed traffic and verify shed correctness; exit 1 on violation")
		p999Max  = flag.Duration("p999max", 0, "fail when the overall served p999 exceeds this (0 = report only)")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")
		ingest   = flag.Int("ingest", 0, "live mixed-traffic mode: ingest this many pages/second through POST /api/v1/ingest alongside the search mix (self-serve starts the server with a live generational index); the report gains ingest lag percentiles")
		memtable = flag.Int("memtable", 0, "live self-serve: memtable seal threshold in documents (0 = default)")
		cluster  = flag.Int("cluster", 0, "self-serve a scatter-gather cluster of this many nodes behind an in-process coordinator and drive that (harvest/jobs ops disabled: the coordinator serves retrieval, not harvesting)")
		replicas = flag.Int("replicas", 2, "cluster mode: partition replication factor")
		nodeDl   = flag.Duration("nodedeadline", 0, "cluster mode: coordinator per-node scatter deadline (0 = default)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "l2qload: ", 0)
	if *quiet {
		logger.SetOutput(io.Discard)
	}

	weights, err := parseMix(*mix)
	if err != nil {
		logger.Fatal(err)
	}

	base := *addr
	var srv *webapi.Server
	if base == "" && *cluster > 0 {
		bound, stop, err := selfServeCluster(*domain, *entities, *pages, *seed,
			*cluster, *replicas, *nodeDl, *maxInFl, logger)
		if err != nil {
			logger.Fatal(err)
		}
		base = "http://" + bound
		defer stop()
	} else if base == "" {
		var bound string
		srv, bound, err = selfServe(*domain, *entities, *pages, *seed, *maxInFl, *ingest > 0, *memtable, aspect, logger)
		if err != nil {
			logger.Fatal(err)
		}
		base = "http://" + bound
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
	}
	base = strings.TrimSuffix(base, "/")
	if *aspect == "" {
		weights["harvest"], weights["jobs"] = 0, 0
	}

	d := newDriver(base, *aspect, *nQueries, weights, *codec, logger)
	if err := d.prepare(); err != nil {
		logger.Fatal(err)
	}

	startMetrics, _ := d.serverMetrics()
	perEp := d.calibrate()

	logger.Printf("driving %s with %d workers for %s (mix %s)", base, *workers, *duration, *mix)
	startWall := time.Now()
	var wg sync.WaitGroup
	recs := make([]*recorder, *workers)
	deadline := startWall.Add(*duration)
	var ing *ingester
	if *ingest > 0 {
		if ing, err = newIngester(d, *ingest, *domain, *entities, *pages, *seed, logger); err != nil {
			logger.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ing.run(deadline)
		}()
	}
	for w := 0; w < *workers; w++ {
		rec := newRecorder()
		recs[w] = rec
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d.worker(w, deadline, rec)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(startWall)

	lost := d.awaitJobs(30 * time.Second)
	endMetrics, _ := d.serverMetrics()

	report := d.report(recs, elapsed, perEp, startMetrics, endMetrics, lost)
	report["config"] = map[string]any{
		"addr": base, "workers": *workers, "duration": duration.String(),
		"mix": *mix, "codec": *codec, "maxInflight": *maxInFl,
		"cluster": *cluster, "replicas": *replicas, "ingest": *ingest,
	}

	ok := true
	fail := func(why string) { ok = false; logger.Printf("FAIL: %s", why) }
	if ing != nil {
		report["ingest"] = ing.section(elapsed)
		if ing.errs > 0 {
			fail(fmt.Sprintf("%d ingest batches failed", ing.errs))
		}
	}
	v := report["verify"].(map[string]any)
	if v["shedBadEnvelope"].(int64) > 0 {
		fail("shed responses with a malformed or non-retryable envelope")
	}
	if lost > 0 {
		fail(fmt.Sprintf("%d submitted jobs never reached a terminal state", lost))
	}
	if *assert && v["shed"].(int64) == 0 {
		fail("-assertshed: no requests were shed (not saturated, or admission control off)")
	}
	if *p999Max > 0 {
		if p := report["p999Ms"].(float64); p > float64(p999Max.Milliseconds()) {
			fail(fmt.Sprintf("served p999 %.1fms exceeds bound %s", p, *p999Max))
		}
	}
	report["ok"] = ok

	line, err := json.Marshal(report)
	if err != nil {
		logger.Fatal(err)
	}
	fmt.Println(string(line))
	if *out != "" {
		if err := os.WriteFile(*out, append(line, '\n'), 0o644); err != nil {
			logger.Fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// parseMix parses "search=55,page=25,..." into op weights.
func parseMix(s string) (map[string]int, error) {
	known := map[string]bool{"search": true, "page": true, "metrics": true, "harvest": true, "jobs": true}
	w := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		var n int
		if ok {
			_, err := fmt.Sscanf(val, "%d", &n)
			ok = err == nil
		}
		if !ok || !known[name] || n < 0 {
			return nil, fmt.Errorf("bad mix element %q (want op=weight with op in search,page,metrics,harvest,jobs)", part)
		}
		w[name] = n
	}
	if len(w) == 0 {
		return nil, errors.New("empty mix")
	}
	return w, nil
}

// selfServe builds a synthetic corpus and starts an in-process server
// with harvesting enabled, picking a harvest aspect into *aspect. With
// live set the server fronts a generational engine and accepts ingest,
// which is what the -ingest mixed-traffic mode drives.
func selfServe(domain string, entities, pages int, seed uint64, maxInFlight int, live bool, memtable int, aspect *string, logger *log.Logger) (*webapi.Server, string, error) {
	cfg := synth.DefaultConfig(corpus.Domain(domain))
	cfg.NumEntities = entities
	cfg.PagesPerEntity = pages
	cfg.Seed = seed
	g, err := synth.Generate(cfg)
	if err != nil {
		return nil, "", err
	}
	var srv *webapi.Server
	if live {
		eng := search.NewLiveEngine(g.Corpus.Pages, search.Options{}, search.LiveOptions{MemtableDocs: memtable})
		srv = webapi.NewLiveServer(g.Corpus, eng, g.Tokenizer)
	} else {
		idx := search.BuildIndex(g.Corpus.Pages)
		engine := search.NewEngineOpts(idx, search.Options{})
		srv = webapi.NewServer(g.Corpus, engine)
	}
	srv.MaxInFlight = maxInFlight
	if maxInFlight > 0 {
		srv.MaxConcurrent = maxInFlight
	}
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}
	ln := store.NewDomainLearner(g.Corpus, g.Tokenizer, rec, 0, nil)
	if len(ln.Aspects) > 0 {
		srv.Harvest = &webapi.HarvestBackend{
			Cfg:         ln.Cfg,
			Aspects:     ln.Aspects,
			Y:           ln.Cls.YFunc,
			Rec:         rec,
			DomainModel: ln.Learn,
		}
		if *aspect == "" {
			*aspect = string(ln.Aspects[0])
		}
	}
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	mode := "frozen"
	if live {
		mode = "live"
	}
	logger.Printf("self-serving %d pages of %q on %s (%s index, maxinflight %d, aspect %q)",
		g.Corpus.NumPages(), domain, bound, mode, maxInFlight, *aspect)
	return srv, bound, nil
}

// ingester paces the live write path: a donor synthetic corpus (same
// shape as the serving corpus, different seed, IDs offset clear of it)
// streamed through POST /api/v1/ingest at a fixed pages/second rate.
// Lag is measured from each batch's SCHEDULED send time to its ack, so
// a server that falls behind shows queueing delay, not just service
// time — latency reporting without coordinated omission.
type ingester struct {
	cli    *webapi.Client
	rate   int
	donor  []webapi.IngestPage
	logger *log.Logger

	lagMs    []float64
	ingested int64
	dups     int64
	batches  int64
	errs     int64
}

func newIngester(d *driver, rate int, domain string, entities, pages int, seed uint64, logger *log.Logger) (*ingester, error) {
	cfg := synth.DefaultConfig(corpus.Domain(domain))
	cfg.NumEntities = entities
	cfg.PagesPerEntity = pages
	cfg.Seed = seed + 1 // donor corpus: same shape, disjoint content
	g, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	// The ingest client keeps the default retry policy: a shed or lost
	// batch is retried, and the server's duplicate-skip idempotency makes
	// redelivery safe.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cli, err := webapi.DialContext(ctx, d.base, &textproc.Tokenizer{}, webapi.ClientOptions{Codec: webapi.CodecAuto})
	if err != nil {
		return nil, fmt.Errorf("dial (ingest): %w", err)
	}
	ing := &ingester{cli: cli, rate: rate, logger: logger}
	// Donor entity and page IDs are offset out of the serving corpus's
	// range, so every page is new and auto-registers its entity.
	const offset = 1_000_000
	for _, p := range g.Corpus.Pages {
		e := g.Corpus.Entity(p.Entity)
		ip := webapi.IngestPage{
			ID:         p.ID + offset,
			Entity:     p.Entity + offset,
			EntityName: e.Name,
			SeedQuery:  e.SeedQuery,
			URL:        p.URL,
			Title:      p.Title,
		}
		for _, para := range p.Paras {
			ip.Paras = append(ip.Paras, webapi.IngestParagraph{Text: para.Text, Aspect: string(para.Aspect)})
		}
		for _, l := range p.Links {
			ip.Links = append(ip.Links, l+offset)
		}
		ing.donor = append(ing.donor, ip)
	}
	return ing, nil
}

// run streams the donor in paced batches (ten ticks a second) until the
// deadline or the donor runs dry, whichever comes first.
func (ing *ingester) run(deadline time.Time) {
	per := ing.rate / 10
	if per < 1 {
		per = 1
	}
	interval := time.Duration(float64(time.Second) * float64(per) / float64(ing.rate))
	next := 0
	tick := time.Now()
	for time.Now().Before(deadline) && next < len(ing.donor) {
		batch := ing.donor[next:min(next+per, len(ing.donor))]
		next += len(batch)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		resp, err := ing.cli.Ingest(ctx, webapi.IngestRequest{Pages: batch})
		cancel()
		ing.batches++
		if err != nil {
			ing.errs++
		} else {
			ing.lagMs = append(ing.lagMs, float64(time.Since(tick))/float64(time.Millisecond))
			ing.ingested += int64(resp.Ingested)
			ing.dups += int64(resp.Duplicates)
		}
		tick = tick.Add(interval)
		if d := time.Until(tick); d > 0 {
			time.Sleep(d)
		}
	}
	if next >= len(ing.donor) {
		ing.logger.Printf("ingest: donor corpus exhausted after %d pages; raise -entities/-pages for longer windows", next)
	}
}

// section summarizes the ingest stream for the report.
func (ing *ingester) section(elapsed time.Duration) map[string]any {
	sort.Float64s(ing.lagMs)
	return map[string]any{
		"targetPagesPerS":   ing.rate,
		"achievedPagesPerS": float64(ing.ingested) / elapsed.Seconds(),
		"pages":             ing.ingested,
		"duplicates":        ing.dups,
		"batches":           ing.batches,
		"errors":            ing.errs,
		"lagP50Ms":          percentile(ing.lagMs, 0.50),
		"lagP99Ms":          percentile(ing.lagMs, 0.99),
		"lagP999Ms":         percentile(ing.lagMs, 0.999),
	}
}

// selfServeCluster boots nodes in-process node servers over one shared
// synthetic corpus, dials a coordinator across them, and serves the
// scatter-gather surface — the zero-setup cluster the CI smoke drives.
// The returned stop function shuts the whole fleet down.
func selfServeCluster(domain string, entities, pages int, seed uint64,
	nodes, replicas int, nodeDeadline time.Duration, maxInFlight int,
	logger *log.Logger) (string, func(), error) {

	cfg := synth.DefaultConfig(corpus.Domain(domain))
	cfg.NumEntities = entities
	cfg.PagesPerEntity = pages
	cfg.Seed = seed
	g, err := synth.Generate(cfg)
	if err != nil {
		return "", nil, err
	}
	engine := search.NewEngineOpts(search.BuildIndex(g.Corpus.Pages), search.Options{})

	var (
		servers []*webapi.Server
		urls    []string
	)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, s := range servers {
			_ = s.Shutdown(ctx)
		}
	}
	for i := 0; i < nodes; i++ {
		node, err := webapi.NewClusterNode(g.Corpus,
			search.ClusterSpec{Nodes: nodes, Replicas: replicas, NodeID: i}, search.Options{}, 0)
		if err != nil {
			stop()
			return "", nil, err
		}
		nsrv := webapi.NewServer(g.Corpus, engine)
		nsrv.Node = node
		bound, err := nsrv.Start("127.0.0.1:0")
		if err != nil {
			stop()
			return "", nil, err
		}
		servers = append(servers, nsrv)
		urls = append(urls, "http://"+bound)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), time.Minute)
	co, err := webapi.DialCoordinator(dctx, webapi.CoordinatorConfig{
		Nodes:        urls,
		Replicas:     replicas,
		NodeDeadline: nodeDeadline,
	}, g.Tokenizer)
	dcancel()
	if err != nil {
		stop()
		return "", nil, err
	}
	coSrv := webapi.NewCoordinatorServer(co)
	coSrv.MaxInFlight = maxInFlight
	if maxInFlight > 0 {
		coSrv.MaxConcurrent = maxInFlight
	}
	bound, err := coSrv.Start("127.0.0.1:0")
	if err != nil {
		stop()
		return "", nil, err
	}
	servers = append(servers, coSrv)
	logger.Printf("self-serving %d-node cluster (replicas %d) over %d pages of %q, coordinator on %s (maxinflight %d)",
		nodes, replicas, g.Corpus.NumPages(), domain, bound, maxInFlight)
	return bound, stop, nil
}

// recorder is one worker's latency log: op name → served latencies (ms).
// Shed (429) and error responses are counted, not timed — mixing rejected
// requests into the latency series would make shedding look like speed.
type recorder struct {
	lat     map[string][]float64
	ops     map[string]int64
	errs    map[string]int64
	shedOK  int64 // 429 with a well-formed retryable "throttled" envelope
	shedBad int64 // 429 with anything else
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]float64{}, ops: map[string]int64{}, errs: map[string]int64{}}
}

func (r *recorder) record(op string, d time.Duration) {
	r.ops[op]++
	r.lat[op] = append(r.lat[op], float64(d)/float64(time.Millisecond))
}

// driver owns the target endpoints, the op mix, and the shared job
// tracker.
type driver struct {
	base     string
	aspect   string
	nQueries int
	weights  map[string]int
	wheel    []string // weighted op lottery wheel
	codec    string
	logger   *log.Logger

	httpc   *http.Client
	cliJSON *webapi.Client
	cliWire *webapi.Client

	seeds   []string // entity seed queries (query corpus)
	vocab   []string // tokens drawn for q=
	pageIDs []corpus.PageID
	ents    []webapi.EntityInfo

	jobMu   sync.Mutex
	jobOpen map[string]bool // submitted, not yet seen terminal
}

func newDriver(base, aspect string, nQueries int, weights map[string]int, codec string, logger *log.Logger) *driver {
	d := &driver{
		base: base, aspect: aspect, nQueries: nQueries, weights: weights,
		codec: codec, logger: logger, jobOpen: map[string]bool{},
		httpc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
			},
		},
	}
	for op, w := range weights {
		for i := 0; i < w; i++ {
			d.wheel = append(d.wheel, op)
		}
	}
	sort.Strings(d.wheel) // deterministic wheel layout
	return d
}

// prepare dials the API clients and harvests the query/page corpus the
// workers draw from.
func (d *driver) prepare() error {
	noRetry := webapi.ClientOptions{Retry: webapi.RetryPolicy{MaxAttempts: 1}, PrefetchWorkers: 4}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	optsJSON := noRetry
	optsJSON.Codec = webapi.CodecJSON
	if d.cliJSON, err = webapi.DialContext(ctx, d.base, &textproc.Tokenizer{}, optsJSON); err != nil {
		return fmt.Errorf("dial (json): %w", err)
	}
	optsWire := noRetry
	optsWire.Codec = webapi.CodecAuto // binary when the server offers it
	if d.cliWire, err = webapi.DialContext(ctx, d.base, &textproc.Tokenizer{}, optsWire); err != nil {
		return fmt.Errorf("dial (wire): %w", err)
	}
	ents, err := d.cliJSON.Entities(ctx)
	if err != nil {
		return fmt.Errorf("entities: %w", err)
	}
	if len(ents) == 0 {
		return errors.New("server reports no entities")
	}
	d.ents = ents
	seen := map[string]bool{}
	for _, e := range ents {
		d.seeds = append(d.seeds, e.SeedQuery)
		for _, t := range strings.Fields(strings.ToLower(e.SeedQuery)) {
			if !seen[t] {
				seen[t] = true
				d.vocab = append(d.vocab, t)
			}
		}
	}
	// Page IDs come from real hit lists so the page op never 404s.
	for i := 0; i < len(d.seeds) && len(d.pageIDs) < 64; i += 3 {
		hits, err := d.searchRawJSON(d.seeds[i])
		if err == nil {
			d.pageIDs = append(d.pageIDs, hits...)
		}
	}
	if len(d.pageIDs) == 0 {
		d.weights["page"] = 0
	}
	return nil
}

// searchRawJSON is the bootstrap search (the seed query alone, one seed=
// parameter per token): plain JSON, hit IDs only.
func (d *driver) searchRawJSON(seed string) ([]corpus.PageID, error) {
	u := d.base + "/api/v1/search?" + url.Values{"seed": textproc.SplitQuery(seed)}.Encode()
	resp, err := d.httpc.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var sr webapi.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	ids := make([]corpus.PageID, 0, len(sr.Hits))
	for _, h := range sr.Hits {
		ids = append(ids, h.PageID)
	}
	return ids, nil
}

// calibrate measures server-side allocations per request for each cheap
// endpoint in isolation: bracket a serial burst with the cumulative
// allocation gauges from /api/v1/metrics and divide. Only meaningful
// self-serve or against an otherwise idle server.
func (d *driver) calibrate() map[string]float64 {
	const burst = 50
	out := map[string]float64{}
	run := func(name string, op func(rng *rand.Rand)) {
		rng := rand.New(rand.NewPCG(7, 7))
		before, err := d.serverMetrics()
		if err != nil {
			return
		}
		for i := 0; i < burst; i++ {
			op(rng)
		}
		after, err := d.serverMetrics()
		if err != nil {
			return
		}
		reqs := after.Requests - before.Requests
		if reqs <= 0 {
			return
		}
		out[name] = float64(after.Runtime.AllocObjects-before.Runtime.AllocObjects) / float64(reqs)
	}
	rec := newRecorder()
	run("search_json", func(rng *rand.Rand) { d.opSearch(rng, rec, d.cliJSON, "search_json") })
	run("search_wire", func(rng *rand.Rand) { d.opSearch(rng, rec, d.cliWire, "search_wire") })
	run("page", func(rng *rand.Rand) { d.opPage(rng, rec) })
	run("metrics", func(rng *rand.Rand) { d.opMetrics(rec) })
	return out
}

func (d *driver) serverMetrics() (webapi.ServerMetrics, error) {
	var m webapi.ServerMetrics
	resp, err := d.httpc.Get(d.base + "/api/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return m, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// worker is one closed-loop traffic generator.
func (d *driver) worker(id int, deadline time.Time, rec *recorder) {
	rng := rand.New(rand.NewPCG(uint64(id)+1, 2016))
	for time.Now().Before(deadline) {
		switch d.wheel[rng.IntN(len(d.wheel))] {
		case "search":
			cli, name := d.cliJSON, "search_json"
			switch d.codec {
			case "binary":
				cli, name = d.cliWire, "search_wire"
			case "mixed":
				if rng.IntN(2) == 0 {
					cli, name = d.cliWire, "search_wire"
				}
			}
			d.opSearch(rng, rec, cli, name)
		case "page":
			d.opPage(rng, rec)
		case "metrics":
			d.opMetrics(rec)
		case "harvest":
			d.opHarvest(rng, rec)
		case "jobs":
			d.opJob(rng, rec)
		}
	}
}

// classify folds one op outcome into the recorder: a served response
// records latency, a shed 429 records envelope correctness, anything
// else records an error.
func (d *driver) classify(rec *recorder, op string, start time.Time, err error, shedOK func(error) bool) {
	if err == nil {
		rec.record(op, time.Since(start))
		return
	}
	var te *webapi.TransportError
	if errors.As(err, &te) && te.Status == http.StatusTooManyRequests {
		if te.Code == "throttled" && (shedOK == nil || shedOK(err)) {
			rec.shedOK++
		} else {
			rec.shedBad++
		}
		return
	}
	rec.errs[op]++
}

func (d *driver) opSearch(rng *rand.Rand, rec *recorder, cli *webapi.Client, name string) {
	seedQ := d.seeds[rng.IntN(len(d.seeds))]
	var q []textproc.Token
	if len(d.vocab) > 0 && rng.IntN(2) == 0 {
		q = []textproc.Token{d.vocab[rng.IntN(len(d.vocab))]}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err := cli.SearchWithSeedErr(ctx, textproc.SplitQuery(seedQ), q)
	d.classify(rec, name, start, err, nil)
}

// shedEnvelope decodes a raw 429 body and reports whether it is the
// well-formed retryable envelope.
func shedEnvelope(body []byte) bool {
	var env struct {
		Error struct {
			Code      string `json:"code"`
			Retryable bool   `json:"retryable"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return false
	}
	return env.Error.Code == "throttled" && env.Error.Retryable
}

// rawGet runs one raw HTTP op, handling the shed path: the body is fully
// read and discarded (or handed to keep), and 429s are verified against
// the envelope contract.
func (d *driver) rawGet(rec *recorder, op, url string, keep func([]byte)) {
	start := time.Now()
	resp, err := d.httpc.Get(url)
	if err != nil {
		rec.errs[op]++
		return
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		if shedEnvelope(body) {
			rec.shedOK++
		} else {
			rec.shedBad++
		}
	case resp.StatusCode != http.StatusOK || rerr != nil:
		rec.errs[op]++
	default:
		rec.record(op, time.Since(start))
		if keep != nil {
			keep(body)
		}
	}
}

func (d *driver) opPage(rng *rand.Rand, rec *recorder) {
	id := d.pageIDs[rng.IntN(len(d.pageIDs))]
	d.rawGet(rec, "page", fmt.Sprintf("%s/page/%d.html", d.base, id), nil)
}

func (d *driver) opMetrics(rec *recorder) {
	d.rawGet(rec, "metrics", d.base+"/api/v1/metrics", nil)
}

func (d *driver) harvestBody(rng *rand.Rand) []byte {
	req := webapi.HarvestRequest{
		Entities: []corpus.EntityID{d.ents[rng.IntN(len(d.ents))].ID},
		Aspect:   d.aspect,
		Strategy: "RND",
		NQueries: d.nQueries,
	}
	b, _ := json.Marshal(req)
	return b
}

// opHarvest runs one synchronous streaming harvest, reading the NDJSON
// event stream to the final done event (the streaming-reader workload).
func (d *driver) opHarvest(rng *rand.Rand, rec *recorder) {
	start := time.Now()
	resp, err := d.httpc.Post(d.base+"/api/v1/harvest", "application/json", bytes.NewReader(d.harvestBody(rng)))
	if err != nil {
		rec.errs["harvest"]++
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if resp.StatusCode == http.StatusTooManyRequests {
			if shedEnvelope(body) {
				rec.shedOK++
			} else {
				rec.shedBad++
			}
		} else {
			rec.errs["harvest"]++
		}
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	done := false
	for sc.Scan() {
		var ev webapi.HarvestEvent
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == "done" {
			done = true
		}
	}
	if done && sc.Err() == nil {
		rec.record("harvest", time.Since(start))
	} else {
		rec.errs["harvest"]++
	}
}

// opJob submits an async job, follows its event stream to a terminal
// state, then deletes it. Every submitted id is tracked so the post-run
// verification can prove no job was lost.
func (d *driver) opJob(rng *rand.Rand, rec *recorder) {
	start := time.Now()
	resp, err := d.httpc.Post(d.base+"/api/v1/jobs", "application/json", bytes.NewReader(d.harvestBody(rng)))
	if err != nil {
		rec.errs["jobs"]++
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		// Shed at submission: the job was never accepted, nothing to lose.
		if shedEnvelope(body) {
			rec.shedOK++
		} else {
			rec.shedBad++
		}
		return
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		rec.errs["jobs"]++
		return
	}
	var sub struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &sub) != nil || sub.ID == "" {
		rec.errs["jobs"]++
		return
	}
	d.jobMu.Lock()
	d.jobOpen[sub.ID] = true
	d.jobMu.Unlock()
	rec.record("jobs", time.Since(start)) // submission latency; completion tracked below

	if st, ok := d.pollJob(sub.ID, 60*time.Second); ok && terminalState(st) {
		d.jobMu.Lock()
		delete(d.jobOpen, sub.ID)
		d.jobMu.Unlock()
		req, _ := http.NewRequest(http.MethodDelete, d.base+"/api/v1/jobs/"+sub.ID, nil)
		if dresp, err := d.httpc.Do(req); err == nil {
			io.Copy(io.Discard, dresp.Body)
			dresp.Body.Close()
		}
	}
}

func terminalState(state string) bool {
	return state == webapi.JobDone || state == webapi.JobCanceled
}

// pollJob polls a job until it reaches a terminal state. Polls shed by
// admission control are simply retried — that is the 429 contract.
func (d *driver) pollJob(id string, timeout time.Duration) (string, bool) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := d.httpc.Get(d.base + "/api/v1/jobs/" + id)
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var st webapi.JobStatus
			if json.Unmarshal(body, &st) == nil && terminalState(st.State) {
				return st.State, true
			}
		} else if resp.StatusCode == http.StatusNotFound {
			return "", false
		}
		time.Sleep(25 * time.Millisecond)
	}
	return "", false
}

// awaitJobs waits for every still-open submitted job to reach a terminal
// state and returns how many never did (lost jobs — the shed-correctness
// failure mode).
func (d *driver) awaitJobs(timeout time.Duration) int {
	d.jobMu.Lock()
	open := make([]string, 0, len(d.jobOpen))
	for id := range d.jobOpen {
		open = append(open, id)
	}
	d.jobMu.Unlock()
	lost := 0
	for _, id := range open {
		if _, ok := d.pollJob(id, timeout); !ok {
			lost++
		}
	}
	return lost
}

// percentile returns the q-quantile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// report merges the per-worker recorders into the one-line JSON payload.
func (d *driver) report(recs []*recorder, elapsed time.Duration, allocsPerOp map[string]float64,
	start, end webapi.ServerMetrics, lostJobs int) map[string]any {

	lat := map[string][]float64{}
	ops := map[string]int64{}
	errs := map[string]int64{}
	var shedOK, shedBad int64
	for _, r := range recs {
		for op, xs := range r.lat {
			lat[op] = append(lat[op], xs...)
		}
		for op, n := range r.ops {
			ops[op] += n
		}
		for op, n := range r.errs {
			errs[op] += n
		}
		shedOK += r.shedOK
		shedBad += r.shedBad
	}

	endpoints := map[string]any{}
	var all []float64
	var totalOps int64
	for op, xs := range lat {
		sort.Float64s(xs)
		all = append(all, xs...)
		totalOps += ops[op]
		ep := map[string]any{
			"ops":     ops[op],
			"errors":  errs[op],
			"p50Ms":   percentile(xs, 0.50),
			"p99Ms":   percentile(xs, 0.99),
			"p999Ms":  percentile(xs, 0.999),
			"opsPerS": float64(ops[op]) / elapsed.Seconds(),
		}
		if a, ok := allocsPerOp[op]; ok {
			ep["serverAllocsPerOp"] = a
		}
		endpoints[op] = ep
	}
	for op, n := range errs {
		if _, seen := endpoints[op]; !seen {
			endpoints[op] = map[string]any{"ops": ops[op], "errors": n}
		}
	}
	sort.Float64s(all)

	serverReqs := end.Requests - start.Requests
	server := map[string]any{
		"requests":       serverReqs,
		"shed":           end.Shed - start.Shed,
		"maxInFlight":    end.MaxInFlight,
		"heapInuseBytes": end.Runtime.HeapInuseBytes,
		"gcPauseP99Ms":   end.Runtime.GCPauseP99Ms,
		"goroutines":     end.Runtime.Goroutines,
	}
	if serverReqs > 0 {
		server["allocsPerRequest"] = float64(end.Runtime.AllocObjects-start.Runtime.AllocObjects) / float64(serverReqs)
		server["allocBytesPerRequest"] = float64(end.Runtime.AllocBytes-start.Runtime.AllocBytes) / float64(serverReqs)
	}
	if end.Cluster != nil {
		// The coordinator's fan-out gauges: scatters served, hedged
		// failovers, flagged partials, and per-node client traffic.
		server["cluster"] = end.Cluster
	}
	if end.Live != nil {
		// The generational engine's end-of-run gauges: docs absorbed,
		// epoch/segment churn, compactions run.
		server["live"] = end.Live
	}

	return map[string]any{
		"bench":     "l2qload",
		"durationS": elapsed.Seconds(),
		"qps":       float64(totalOps) / elapsed.Seconds(),
		"p50Ms":     percentile(all, 0.50),
		"p99Ms":     percentile(all, 0.99),
		"p999Ms":    percentile(all, 0.999),
		"endpoints": endpoints,
		"server":    server,
		"verify": map[string]any{
			"shed":            shedOK + shedBad,
			"shedOKEnvelope":  shedOK,
			"shedBadEnvelope": shedBad,
			"lostJobs":        lostJobs,
		},
	}
}
