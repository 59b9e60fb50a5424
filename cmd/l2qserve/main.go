// Command l2qserve serves a corpus as a search API over HTTP: JSON search
// plus rendered HTML pages — the stand-in for the commercial search engine
// the paper harvests through. Remote harvesters connect with
// webapi.DialContext and run unchanged (see examples/httpharvest).
//
// With -harvest (the default), the server also runs harvests itself, as
// jobs: POST /api/v1/jobs → id, GET /api/v1/jobs/{id} for status or
// ?stream=1 to follow the job's events as NDJSON (the last line is "done"),
// DELETE to cancel — with per-entity checkpoints for resume. A caller that
// wants the events of one harvest and nothing kept submits, follows and
// DELETEs (webapi.Client.HarvestBatch does). Every job runs on ONE shared
// scheduler with FIFO admission and per-job fair share (a goroutine per
// entity; GOMAXPROCS select and 4× as many fetch at once; at most
// -maxinflight active entities when set); a killed job's checkpoints can be
// re-submitted via the request's "resume" field. Classifiers are trained on
// the served corpus and domain models are learned lazily per aspect (over
// the canonical first-half entity sample). GET /api/v1/metrics exposes the
// server-side counters (requests, scheduler queue depth, budget state).
//
// The corpus is either loaded from a store file written by l2qgen/l2qstore
// (-store) or generated synthetically (-domain/-entities/-pages).
//
// A process holds what it serves, once. A cluster node (-nodes N -nodeid i)
// generates or loads only the pages of the partitions the ring assigns to
// it, indexes those partitions and nothing else, and answers
// /api/v1/cluster/{search,stats}, /page/{id} for the pages it holds (404
// otherwise) and /api/v1/{stats,entities,metrics}; whole-corpus
// /api/v1/search is the coordinator's. A coordinator (-coordinator -nodes
// url,url,…) holds no pages and no tokenizer: it scatters searches and
// passes page bytes on, and accepts the corpus flags without reading them.
// Neither mounts the jobs API: a harvest through a cluster is a remote
// session against the coordinator (l2qharvest -remote).
//
// Usage:
//
//	l2qserve -addr 127.0.0.1:8080 -domain researchers -entities 100
//	l2qserve -addr 127.0.0.1:8080 -store corpus.l2q
//	curl -d '{"entities":[7],"aspect":"RESEARCH","nQueries":3}' http://127.0.0.1:8080/api/v1/jobs
//	curl 'http://127.0.0.1:8080/api/v1/jobs/j1?stream=1'
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
	"l2q/internal/harvest"
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
		cacheSize = flag.Int("cachesize", 0, "query-result cache capacity in entries (0 = default 4096, <0 = off): the engine's cache on a single server (frozen or -live), the front cache of complete results ahead of the scatter on a coordinator; a cluster node runs uncached and ignores it")
		harvest   = flag.Bool("harvest", true, "enable the /api/v1/jobs API (server-side harvesting: submit, poll or stream, cancel)")
		domains   = flag.String("domains", "", "domain-artifact file (l2qstore domains): boot the harvest backend warm instead of learning per aspect on first request")
		maxInFl   = flag.Int("maxinflight", 0, "admission control: shed requests 429 past this many in flight, and run at most this many harvest jobs at once (0 = queue past 64 in flight, jobs unbounded)")
		live      = flag.Bool("live", false, "serve a live generational index: POST /api/v1/ingest grows the corpus while searches keep serving")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		coord     = flag.Bool("coordinator", false, "coordinator mode: scatter-gather over the node URLs in -nodes; the process holds no pages and no tokenizer (queries arrive as tokens), and accepts the corpus flags without reading them")
		nodesFlag = flag.String("nodes", "", "cluster topology: in coordinator mode a comma-separated list of node base URLs; in node mode the cluster size (serve one partition set with -nodeid)")
		nodeID    = flag.Int("nodeid", 0, "this node's ordinal in [0, nodes) (node mode)")
		replicas  = flag.Int("replicas", 2, "partition replication factor, clamped to [1, nodes] the same way by nodes and coordinator")
		nodeDl    = flag.Duration("nodedeadline", 0, "coordinator: per-node scatter deadline before failing over to a replica (0 = default)")
	)
	flag.Parse()
	sopts := search.Options{CacheSize: *cacheSize}

	logger := log.New(os.Stderr, "l2qserve: ", log.LstdFlags)

	// The cluster flags are checked, and a node's ring built, before any
	// corpus work: a typo must not cost a corpus generation to find, and
	// the ring is what decides which pages this process ever holds.
	var (
		nodeURLs []string
		spec     search.ClusterSpec
		keep     func(corpus.PageID) bool // nil: every page
	)
	nodeMode := !*coord && *nodesFlag != ""
	switch {
	case *coord:
		for _, u := range strings.Split(*nodesFlag, ",") {
			if u = strings.TrimSpace(u); u != "" {
				nodeURLs = append(nodeURLs, u)
			}
		}
		if len(nodeURLs) == 0 {
			logger.Fatal("coordinator mode: -nodes must list the node base URLs (comma-separated)")
		}
	case nodeMode:
		n, err := strconv.Atoi(*nodesFlag)
		if err != nil {
			logger.Fatalf("node mode: -nodes must be the cluster size, got %q (coordinator mode needs -coordinator)", *nodesFlag)
		}
		if *live {
			logger.Fatal("-live is incompatible with cluster node mode (-nodes)")
		}
		spec = search.ClusterSpec{Nodes: n, Replicas: *replicas, NodeID: *nodeID}
		ring, err := spec.Ring()
		if err != nil {
			logger.Fatal(err)
		}
		keep = func(id corpus.PageID) bool { return ring.Holds(spec.NodeID, id) }
	}

	var (
		c   *corpus.Corpus
		idx *search.Index
		tok *textproc.Tokenizer
		rec types.Recognizer = types.NewRegexRecognizer()
	)
	switch {
	case *coord:
		// Nothing to load: a coordinator holds no corpus and no tokenizer.
	case *storePath != "":
		// Under a predicate the load validates every page but materializes
		// only the kept ones and leaves the persisted whole-corpus index
		// alone.
		b, err := store.LoadFile(*storePath, keep)
		if err != nil {
			logger.Fatal(err)
		}
		c, idx, tok = b.Corpus, b.Index, b.Tokenizer
	default:
		cfg := synth.DefaultConfig(corpus.Domain(*domain))
		cfg.NumEntities = *entities
		cfg.PagesPerEntity = *pages
		cfg.Seed = *seed
		cfg.Keep = keep
		g, err := synth.Generate(cfg)
		if err != nil {
			logger.Fatal(err)
		}
		c, tok = g.Corpus, g.Tokenizer
		rec = types.Chain{g.KB, types.NewRegexRecognizer()}
	}

	// A single server, frozen or live, serves one index over the whole
	// corpus: the one the store file carried, or one built here, once.
	// Harvest jobs classify with classifiers counted over the corpus;
	// without an artifact to take them from, the pass that builds the
	// index counts them too, so boot tokenizes each page once.
	var counts *classify.LabelCounts
	if idx == nil && !*coord && !nodeMode {
		var also []corpus.ParaVisitor
		if *harvest && *domains == "" {
			counts = classify.NewLabelCounts()
			also = append(also, counts.Add)
		}
		idx = search.BuildIndex(c.Pages, also...)
	}

	var (
		srv *webapi.Server
		// The readiness line: "<what> on http://<addr> (<detail>)".
		what, detail string
		err          error
	)
	switch {
	case *coord:
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		co, err := webapi.DialCoordinator(ctx, webapi.CoordinatorConfig{
			Nodes:        nodeURLs,
			Replicas:     *replicas,
			NodeDeadline: *nodeDl,
			CacheSize:    *cacheSize,
		})
		cancel()
		if err != nil {
			logger.Fatal(err)
		}
		srv = webapi.NewCoordinatorServer(co)
		st, cm := co.Stats(), co.Metrics()
		what = fmt.Sprintf("coordinating %d nodes (replicas %d) over %d pages of %q", cm.Nodes, cm.Replicas, st.NumPages, st.Domain)
		front := "off (-cachesize < 0: every search scatters)"
		if *cacheSize >= 0 {
			front = fmt.Sprintf("%d complete results (-cachesize)", sopts.Capacity())
		}
		detail = fmt.Sprintf("top-%d, global μ = %.0f, front cache %s", st.TopK, st.Mu, front)
	case nodeMode:
		if srv, err = webapi.NewNodeServer(c, spec, *topK); err != nil {
			logger.Fatal(err)
		}
		if *cacheSize != 0 {
			logger.Print("cachesize: a cluster node's partition engines run uncached — behind the coordinator's front cache they would see only its misses; pass -cachesize to the coordinator, where it sizes that cache")
		}
		node := srv.Node()
		st, ns := node.Stats(), node.Spec()
		what = fmt.Sprintf("serving %d pages of %q", st.NumPages, st.Domain)
		detail = fmt.Sprintf("top-%d, partition μ = %.0f; node %d of %d, replicas %d, partitions %v",
			st.TopK, st.Mu, ns.NodeID, ns.Nodes, ns.Replicas, node.Partitions())
	default:
		// One engine for both single-server modes; -live only decides
		// whether the server is handed the tokenizer ingest needs.
		eng := search.NewLiveEngine(idx, sopts, search.LiveOptions{TopK: *topK})
		var ingestTok *textproc.Tokenizer
		if *live {
			ingestTok = tok
		}
		srv = webapi.NewServer(c, eng, ingestTok)
		what = fmt.Sprintf("serving %d pages of %q", c.NumPages(), c.Domain)
		detail = fmt.Sprintf("top-%d, μ = %.0f", eng.TopK(), eng.View().Mu())
		if *live {
			m := eng.Metrics()
			detail += fmt.Sprintf(", LIVE: %d segments, memtable %d docs", m.Segments, m.MemtableDocs)
		}
	}
	srv.MaxInFlight = *maxInFl
	if !*quiet {
		srv.Log = logger
	}
	// Harvest sessions train classifiers on, and search, the corpus the
	// process holds: a coordinator holds none, a node a fraction.
	switch {
	case *harvest && (nodeMode || *coord):
		logger.Print("harvest: a cluster process holds no whole corpus; the jobs API answers 501 (harvest against a single server, or remotely through the coordinator)")
	case *harvest:
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
		if hb := harvestBackend(c, tok, rec, art, counts, logger); hb != nil {
			srv.Harvest = hb
		}
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		logger.Fatal(err)
	}
	fmt.Printf("%s on http://%s (%s)\n", what, bound, detail)
	if *maxInFl > 0 {
		fmt.Printf("admission control: shedding 429 past %d in-flight requests\n", *maxInFl)
	}
	switch {
	case *coord:
		fmt.Println("endpoints: /api/v1/{stats,search?q=&seed=[&with=pages&have=],entities,metrics} /page/{id}.html /healthz (repeats answered from the front cache, the rest scatter-gathered; this process holds no pages, only a bounded cache of the bodies it has passed on)")
	case nodeMode:
		fmt.Println("endpoints: /api/v1/cluster/{search?part=&q=&seed=,stats} /page/{id}.html (the pages of its partitions; 404 for the rest) /api/v1/{stats,entities,metrics} /healthz — /api/v1/search is refused: whole-corpus rankings are the coordinator's, and so is the query cache (-cachesize there; partition engines run uncached)")
	default:
		endpoints := "endpoints: /api/v1/{stats,search?q=&seed=[&with=pages&have=],entities,metrics} /page/{id}.html /healthz (q and seed: one parameter per token)"
		if *live {
			endpoints += " POST /api/v1/ingest"
		}
		if srv.Harvest != nil {
			endpoints += " POST /api/v1/jobs GET|DELETE /api/v1/jobs/{id}[?stream=1]"
		}
		fmt.Println(endpoints)
	}
	fmt.Println("wire: binary codec offered via Accept: " + webapi.WireContentType)

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
// aspects the artifact does not cover learn on first request. counts are
// the corpus' label counts when the index build took them (nil: the
// learner counts if it must). Returns nil (harvesting disabled) when the
// corpus carries no aspect labels.
func harvestBackend(c *corpus.Corpus, tok *textproc.Tokenizer, rec types.Recognizer,
	art *store.DomainArtifact, counts *classify.LabelCounts, logger *log.Logger) *harvest.Backend {

	if len(c.Aspects()) == 0 {
		logger.Print("harvest: corpus has no aspect labels; endpoint disabled")
		return nil
	}
	ln := store.NewDomainLearner(c, tok, rec, art, counts)
	if len(ln.Aspects) == 0 {
		logger.Print("harvest: no aspect has training signal; endpoint disabled")
		return nil
	}
	if art != nil {
		logger.Printf("harvest: booted warm with %d persisted domain models (%d classifiers); other aspects learn on first request",
			len(art.Models), len(art.Classifiers))
	}
	return &harvest.Backend{Cfg: ln.Cfg, Aspects: ln.Aspects, Y: ln.Cls.YFunc, Rec: rec, DomainModel: ln.Learn}
}
