// Command l2qserve serves a corpus as a search API over HTTP: JSON search
// plus rendered HTML pages — the stand-in for the commercial search engine
// the paper harvests through. Remote harvesters connect with
// webapi.DialContext and run unchanged (see examples/httpharvest).
//
// With -harvest (the default), the server also exposes POST /api/v1/harvest
// (synchronous batch harvesting streaming NDJSON progress) and the async
// jobs API (POST /api/v1/jobs → id, GET /api/v1/jobs/{id} for status or
// ?stream=1 event following, DELETE to cancel — with per-entity
// checkpoints for resume). Every harvest runs on ONE shared scheduler
// (-selectworkers/-fetchworkers/-maxactive) with FIFO admission and
// per-request fair share; a killed job's checkpoints can be re-submitted
// via the request's "resume" field. Classifiers are trained on the served
// corpus and domain models are learned lazily per aspect (over the
// canonical first-half entity sample). GET /api/v1/metrics exposes the
// server-side counters (requests, scheduler queue depth, budget state).
//
// The corpus is either loaded from a store file written by l2qgen/l2qstore
// (-store) or generated synthetically (-domain/-entities/-pages).
//
// Usage:
//
//	l2qserve -addr 127.0.0.1:8080 -domain researchers -entities 100
//	l2qserve -addr 127.0.0.1:8080 -store corpus.l2q
//	curl -d '{"entities":[7],"aspect":"RESEARCH","nQueries":3}' http://127.0.0.1:8080/api/v1/harvest
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"l2q/internal/classify"
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
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		storePath = flag.String("store", "", "store file to serve (overrides -domain)")
		domain    = flag.String("domain", "researchers", "researchers or cars")
		entities  = flag.Int("entities", 100, "corpus entities (synthetic mode)")
		pages     = flag.Int("pages", 30, "pages per entity (synthetic mode)")
		seed      = flag.Uint64("seed", 2016, "corpus seed (synthetic mode)")
		topK      = flag.Int("k", 5, "results per query")
		quiet     = flag.Bool("quiet", false, "disable request logging")
		cacheSize = flag.Int("cachesize", 0, "query cache capacity (0 = default, <0 = off)")
		harvest   = flag.Bool("harvest", true, "enable POST /api/v1/harvest and the /api/v1/jobs async API (server-side batch harvesting)")
		domains   = flag.String("domains", "", "domain-artifact file (l2qstore domains): boot the harvest backend warm instead of learning per aspect on first request")
		learnW    = flag.Int("learnworkers", 0, "domain-phase counting workers for lazily learned models (0 = GOMAXPROCS)")
		maxSess   = flag.Int("harvestsessions", 64, "max entities per harvest request")
		selectW   = flag.Int("selectworkers", 0, "shared scheduler: select (CPU) workers (0 = GOMAXPROCS)")
		fetchW    = flag.Int("fetchworkers", 0, "shared scheduler: fetch (I/O) workers (0 = 4×select)")
		maxActive = flag.Int("maxactive", 0, "shared scheduler: admission bound on concurrently active jobs (0 = unlimited)")
		maxInFl   = flag.Int("maxinflight", 0, "admission control: shed requests 429 past this many in flight, and default -maxactive to it (0 = off)")
		live      = flag.Bool("live", false, "serve a live generational index: POST /api/v1/ingest grows the corpus while searches keep serving")
		memtable  = flag.Int("memtable", 0, "live mode: memtable seal threshold in documents (0 = default)")
		fanIn     = flag.Int("compactfanin", 0, "live mode: background-compaction fan-in (0 = default, <0 = background compaction off)")
		ingestW   = flag.Int("ingestworkers", 0, "live mode: ingest pre-tokenization workers (0 = GOMAXPROCS)")
		wire      = flag.Bool("wire", true, "offer the binary wire codec to clients that ask for it (Accept: "+webapi.WireContentType+"); JSON stays the default either way")
		compress  = flag.Int("compress", 0, "gzip wire payloads at or above this many bytes (0 = default threshold, <0 = never compress)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		coord     = flag.Bool("coordinator", false, "coordinator mode: scatter-gather over the node URLs in -nodes instead of serving a local index (the corpus flags must still describe the cluster's corpus — the tokenizer lexicon comes from it)")
		nodesFlag = flag.String("nodes", "", "cluster topology: in coordinator mode a comma-separated list of node base URLs; in node mode the cluster size (serve one partition set with -nodeid)")
		nodeID    = flag.Int("nodeid", 0, "this node's ordinal in [0, nodes) (node mode)")
		replicas  = flag.Int("replicas", 2, "partition replication factor (clamped to [1, nodes])")
		nodeDl    = flag.Duration("nodedeadline", 0, "coordinator: per-node scatter deadline before failing over to a replica (0 = default)")
	)
	flag.Parse()
	sopts := search.Options{CacheSize: *cacheSize}

	logger := log.New(os.Stderr, "l2qserve: ", log.LstdFlags)

	var (
		c   *corpus.Corpus
		idx *search.Index
		tok *textproc.Tokenizer
		rec types.Recognizer = types.NewRegexRecognizer()
	)
	if *storePath != "" {
		b, err := store.LoadFile(*storePath)
		if err != nil {
			logger.Fatal(err)
		}
		c = b.Corpus
		idx = b.Index
		if idx == nil && !*coord && !*live {
			idx = search.BuildIndex(c.Pages)
		}
		// Store files carry no tokenizer; reconstruct the phrase lexicon
		// from the corpus's own multi-word tokens so server-side query
		// tokenization round-trips phrases the way the corpus builder did.
		tok = store.ReconstructTokenizer(c)
	} else {
		cfg := synth.DefaultConfig(corpus.Domain(*domain))
		cfg.NumEntities = *entities
		cfg.PagesPerEntity = *pages
		cfg.Seed = *seed
		g, err := synth.Generate(cfg)
		if err != nil {
			logger.Fatal(err)
		}
		c = g.Corpus
		if !*coord && !*live {
			idx = search.BuildIndex(c.Pages)
		}
		tok = g.Tokenizer
		rec = types.Chain{g.KB, types.NewRegexRecognizer()}
	}

	if *coord {
		runCoordinator(*addr, *nodesFlag, *replicas, *nodeDl, *maxInFl, *wire, *compress, *drain, *quiet, tok, logger)
		return
	}

	var (
		srv     *webapi.Server
		liveEng *search.LiveEngine
		engine  *search.Engine
	)
	if *live {
		if *nodesFlag != "" {
			logger.Fatal("-live is incompatible with cluster node mode (-nodes)")
		}
		liveEng = search.NewLiveEngine(c.Pages, sopts, search.LiveOptions{
			MemtableDocs:  *memtable,
			CompactFanIn:  *fanIn,
			IngestWorkers: *ingestW,
			TopK:          *topK,
		})
		srv = webapi.NewLiveServer(c, liveEng, tok)
	} else {
		engine = search.NewEngineOpts(idx, sopts).WithTopK(*topK)
		srv = webapi.NewServer(c, engine)
	}
	srv.WireDisabled = !*wire
	srv.CompressMin = *compress
	srv.MaxInFlight = *maxInFl
	if *maxInFl > 0 {
		// Admission control shrinks the blocking concurrency gate too:
		// shed fast at MaxInFlight, never convoy behind it.
		srv.MaxConcurrent = *maxInFl
	}
	if !*quiet {
		srv.Log = logger
	}
	if *nodesFlag != "" {
		n, err := strconv.Atoi(*nodesFlag)
		if err != nil {
			logger.Fatalf("node mode: -nodes must be the cluster size, got %q (coordinator mode needs -coordinator)", *nodesFlag)
		}
		node, err := webapi.NewClusterNode(c, search.ClusterSpec{Nodes: n, Replicas: *replicas, NodeID: *nodeID}, sopts, *topK)
		if err != nil {
			logger.Fatal(err)
		}
		srv.Node = node
	}
	if *harvest {
		var art *store.DomainArtifact
		if *domains != "" {
			var err error
			if art, err = store.LoadDomainsFile(*domains); err != nil {
				logger.Fatal(err)
			}
			if art.CorpusDomain != c.Domain {
				logger.Fatalf("domain artifact %s was learned over domain %q, serving %q",
					*domains, art.CorpusDomain, c.Domain)
			}
			if art.NumEntities != c.NumEntities() || art.NumPages != c.NumPages() {
				logger.Printf("warning: domain artifact %s was learned over %d entities / %d pages; serving %d / %d",
					*domains, art.NumEntities, art.NumPages, c.NumEntities(), c.NumPages())
			}
		}
		if hb := harvestBackend(c, tok, rec, *maxSess, *learnW, art, logger); hb != nil {
			hb.SelectWorkers = *selectW
			hb.FetchWorkers = *fetchW
			hb.MaxActive = *maxActive
			srv.Harvest = hb
		}
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		logger.Fatal(err)
	}
	if *live {
		m := liveEng.Metrics()
		fmt.Printf("serving %d pages of %q on http://%s (top-%d, μ = %.0f, LIVE: %d segments, memtable %d docs)\n",
			c.NumPages(), c.Domain, bound, liveEng.TopK(), liveEng.Mu(),
			m.Segments, m.MemtableDocs)
	} else {
		fmt.Printf("serving %d pages of %q on http://%s (top-%d, μ = %.0f)\n",
			c.NumPages(), c.Domain, bound, engine.TopK(), engine.Mu())
	}
	if *maxInFl > 0 {
		fmt.Printf("admission control: shedding 429 past %d in-flight requests\n", *maxInFl)
	}
	endpoints := "endpoints: /api/v1/{stats,search?q=&seed=[&with=pages&have=],entities,metrics} /page/{id}.html /healthz (q and seed: one parameter per token)"
	if srv.Node != nil {
		fmt.Printf("cluster node %d of %d (replicas %d): /api/v1/cluster/{search,stats} serving partitions %v\n",
			*nodeID, srv.Node.Spec().Nodes, srv.Node.Spec().Replicas, srv.Node.Partitions())
	}
	if *live {
		endpoints += " POST /api/v1/ingest"
	}
	if srv.Harvest != nil {
		endpoints += " POST /api/v1/harvest POST|GET|DELETE /api/v1/jobs"
	}
	fmt.Println(endpoints)
	if !srv.WireDisabled {
		fmt.Println("wire: binary codec offered via Accept: " + webapi.WireContentType)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("shutting down (canceling in-flight harvests, draining)")
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Fatal(err)
	}
}

// harvestBackend wires the batch-harvest endpoint over the canonical
// learning protocol (store.DomainLearner — the same one `l2qstore
// domains` precomputes with). With a domain artifact, its classifiers
// and models are used as-is and the server's first harvest runs warm;
// aspects the artifact does not cover keep the lazy path (classifiers
// trained at boot, models learned on first request). Returns nil
// (harvesting disabled) when the corpus carries no aspect labels.
func harvestBackend(c *corpus.Corpus, tok *textproc.Tokenizer, rec types.Recognizer,
	maxSessions, learnWorkers int, art *store.DomainArtifact, logger *log.Logger) *webapi.HarvestBackend {

	if len(c.Aspects()) == 0 {
		logger.Print("harvest: corpus has no aspect labels; endpoint disabled")
		return nil
	}
	var preTrained *classify.Set
	if art != nil {
		preTrained = art.ClassifierSet()
	}
	ln := store.NewDomainLearner(c, tok, rec, learnWorkers, preTrained)
	if len(ln.Aspects) == 0 {
		logger.Print("harvest: no aspect has training signal; endpoint disabled")
		return nil
	}
	hb := &webapi.HarvestBackend{
		Cfg:         ln.Cfg,
		Aspects:     ln.Aspects,
		Y:           ln.Cls.YFunc,
		Rec:         rec,
		MaxSessions: maxSessions,
		// The backend memoizes per aspect, so learning from scratch here
		// runs at most once per aspect (and never for preloaded aspects).
		DomainModel: ln.Learn,
	}
	if art != nil {
		hb.Preload(art.ModelMap())
		covered := make(map[corpus.Aspect]bool, len(art.Models))
		for _, dm := range art.Models {
			covered[dm.Aspect] = true
		}
		var lazy []corpus.Aspect
		for _, a := range ln.Aspects {
			if !covered[a] {
				lazy = append(lazy, a)
			}
		}
		logger.Printf("harvest: booted warm with %d persisted domain models (%d classifiers)",
			len(art.Models), len(art.Classifiers))
		if len(lazy) > 0 {
			logger.Printf("harvest: aspects %v not in the artifact; they learn lazily on first request", lazy)
		}
	}
	return hb
}

// runCoordinator dials the node fleet, aggregates their collection
// statistics into the global scoring model, pushes it back, and serves
// the scatter-gather surface: the same /api/v1 endpoints a single node
// offers, answered by fan-out over the cluster with replica failover.
func runCoordinator(addr, nodes string, replicas int, nodeDeadline time.Duration,
	maxInFlight int, wire bool, compress int, drain time.Duration,
	quiet bool, tok *textproc.Tokenizer, logger *log.Logger) {

	var urls []string
	for _, u := range strings.Split(nodes, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		logger.Fatal("coordinator mode: -nodes must list the node base URLs (comma-separated)")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	co, err := webapi.DialCoordinator(ctx, webapi.CoordinatorConfig{
		Nodes:        urls,
		Replicas:     replicas,
		NodeDeadline: nodeDeadline,
	}, tok)
	cancel()
	if err != nil {
		logger.Fatal(err)
	}

	srv := webapi.NewCoordinatorServer(co)
	srv.WireDisabled = !wire
	srv.CompressMin = compress
	srv.MaxInFlight = maxInFlight
	if maxInFlight > 0 {
		srv.MaxConcurrent = maxInFlight
	}
	if !quiet {
		srv.Log = logger
	}
	bound, err := srv.Start(addr)
	if err != nil {
		logger.Fatal(err)
	}
	st := co.Stats()
	cm := co.Metrics()
	fmt.Printf("coordinating %d nodes (replicas %d) over %d pages of %q on http://%s (top-%d, global μ = %.0f)\n",
		cm.Nodes, cm.Replicas, st.NumPages, st.Domain, bound, st.TopK, st.Mu)
	fmt.Println("endpoints: /api/v1/{stats,search?q=&seed=[&with=pages&have=],entities,metrics} /page/{id}.html /healthz (scatter-gathered)")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("shutting down (draining)")
	sctx, scancel := context.WithTimeout(context.Background(), drain)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		logger.Fatal(err)
	}
}
