package webapi

// The scatter-gather half of distributed retrieval (see cluster.go for
// the node half). A Coordinator fronts N l2qserve nodes as one logical
// search engine: each query fans out to every partition's owner chain
// over the negotiated wire codec, per-node deadlines bound the slowest
// link, a failed or late owner fails over to its replica (a hedge), and
// the per-partition top-K lists merge — partitions are disjoint, so no
// dedup — into the global ranking. The coordinator searches and proxies
// page bytes; it parses no page and holds no tokenizer. What a harvesting
// session retrieves through is a Client dialed to the coordinator's server
// (NewCoordinatorServer), so the same session code runs against an
// in-process engine, a single remote server, or a cluster.
//
// At dial time the coordinator aggregates every node's primary-partition
// collection statistics into the global model, derives the global μ with
// the engine's own AutoMu formula, and pushes the result back to every
// node — after which per-node scores are bit-identical to a single-node
// engine over the whole corpus, which the differential parity tests hold
// byte-for-byte.
//
// The coordinator is also where the cluster caches: complete results in
// front of the scatter, where a repeat saves the round trips, and page
// bodies as the bytes they arrived as, bounded (see Coordinator.front and
// Coordinator.bodies).

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/textproc"
)

// DefaultNodeDeadline bounds one per-node scatter attempt (search only;
// page transfers run under the caller's context, since a slow bulk link
// is not a node failure).
const DefaultNodeDeadline = 2 * time.Second

// CoordinatorConfig configures DialCoordinator.
type CoordinatorConfig struct {
	// Nodes are the node base URLs; index order IS ring node-ID order and
	// must match each node's -nodeid.
	Nodes []string
	// Replicas is the per-partition replication factor the nodes were
	// started with (default 2, clamped to [1, len(Nodes)]).
	Replicas int
	// NodeDeadline bounds one per-node scatter attempt before failing
	// over to the next replica (default DefaultNodeDeadline).
	NodeDeadline time.Duration
	// Client configures the per-node transports (retry policy, codec,
	// timeout).
	Client ClientOptions
	// CacheSize is the capacity of the front result cache, with
	// search.Options.CacheSize's meaning: 0 picks search.DefaultCacheSize,
	// negative turns the cache off (every search scatters).
	CacheSize int
}

// maxBodies bounds the coordinator's page-body cache. A constant like
// maxHave, not an option: at ≈ 1.4 kB a rendered page it is ≈ 11 MB, and a
// body that fell out only travels from its owner again.
const maxBodies = 8192

// nodePeer is the coordinator's view of one node: its client (retrying
// transport, metrics; the coordinator keeps bodies in its own cache, not in
// the clients' page caches) plus the fan-out gauges the load harness
// calibrates against.
type nodePeer struct {
	base     string
	cli      *Client
	inFlight atomic.Int64
	hedges   atomic.Int64 // failover requests this node served for a downed peer
	errors   atomic.Int64 // scatter/page attempts against this node that failed
}

// Coordinator is the cluster's query front end. Create with
// DialCoordinator; safe for concurrent use.
type Coordinator struct {
	ring         *search.Ring
	peers        []*nodePeer
	nodeDeadline time.Duration

	global GlobalStatsPayload
	stats  Stats
	ents   []EntityInfo

	// front caches complete responses by (k, seed, query) ahead of the
	// fan-out — the one place in a cluster where a hit saves the round
	// trips; nil when off. Only complete results are stored (no error, not
	// Partial), and nothing invalidates them, for the reason nothing
	// invalidates an engine's cache: nodes are frozen (l2qserve refuses
	// -live with -nodes) and the global model is computed and pushed once,
	// in DialCoordinator. Cluster-wide ingest, or a re-push of the global
	// model, would have to drop this cache (and bodies) or key it by a
	// cluster epoch. The cache owns its hit lists: search stores and
	// returns copies, because the serving layer writes page bodies into
	// the list it is handed.
	front *search.Cache[SearchResponse]
	// bodies holds up to maxBodies page bodies fetched from the nodes,
	// by page ID, as the bytes the owner served — checked once, at the
	// fetch, and their total size. flight coalesces concurrent fetches of
	// one page onto one download (one batch's).
	bodies *sizedCache[string]
	flight flightGroup[string]

	scatters    atomic.Int64
	hedges      atomic.Int64
	partials    atomic.Int64
	bodyFetches atomic.Int64
}

// DialCoordinator dials every node, verifies the shared cluster geometry,
// aggregates the nodes' primary-partition statistics into the global
// collection model, and pushes that model back to every node. The ctx
// bounds the whole registration exchange. The node clients are dialed
// without a tokenizer: the coordinator never parses a page.
func DialCoordinator(ctx context.Context, cfg CoordinatorConfig) (*Coordinator, error) {
	n := len(cfg.Nodes)
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	replicas := cfg.Replicas
	if replicas == 0 {
		replicas = 2
	}
	replicas = search.ClampReplicas(replicas, n)
	deadline := cfg.NodeDeadline
	if deadline <= 0 {
		deadline = DefaultNodeDeadline
	}
	co := &Coordinator{
		ring:         search.NewRing(n, replicas, 0),
		peers:        make([]*nodePeer, n),
		nodeDeadline: deadline,
		front:        search.NewCache[SearchResponse](search.Options{CacheSize: cfg.CacheSize}.Capacity()),
		bodies:       newSizedCache(maxBodies, func(body string) int { return len(body) }),
	}

	// Dial and collect each node's registration report in parallel.
	reports := make([]NodeStatsPayload, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, base := range cfg.Nodes {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			cli, err := DialContext(ctx, base, nil, cfg.Client)
			if err != nil {
				errs[i] = err
				return
			}
			st, err := cli.ClusterStats(ctx)
			if err != nil {
				errs[i] = err
				return
			}
			if st.Nodes != n || st.Replicas != replicas || st.Node != i {
				errs[i] = fmt.Errorf("node %s reports geometry nodes=%d replicas=%d id=%d, want nodes=%d replicas=%d id=%d",
					base, st.Nodes, st.Replicas, st.Node, n, replicas, i)
				return
			}
			co.peers[i] = &nodePeer{base: base, cli: cli}
			reports[i] = st
		}(i, base)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("cluster: dial: %w", err)
	}

	// Aggregate the disjoint primary partitions into the global model.
	// Sums are exact because primaries cover the corpus without overlap.
	global := &search.CollectionStats{}
	topK := reports[0].TopK
	for i, st := range reports {
		if st.TopK != topK {
			return nil, fmt.Errorf("cluster: node %s serves top-%d, node %s top-%d — nodes must agree",
				cfg.Nodes[0], topK, cfg.Nodes[i], st.TopK)
		}
		search.MergeStats(global, &search.CollectionStats{
			CollFreq:    st.CollFreq,
			TotalTokens: st.TotalTokens,
			NumDocs:     st.NumDocs,
		})
	}
	mu := search.AutoMu(global.NumDocs, global.TotalTokens)
	co.global = GlobalStatsPayload{
		NumDocs:     global.NumDocs,
		TotalTokens: global.TotalTokens,
		NumTerms:    global.NumTerms,
		Mu:          mu,
		TopK:        topK,
		CollFreq:    global.CollFreq,
	}

	// Push the global model to every node (idempotent; nodes answer
	// cluster searches 503 until this lands).
	pushErrs := make([]error, n)
	var pwg sync.WaitGroup
	for i := range co.peers {
		pwg.Add(1)
		go func(i int) {
			defer pwg.Done()
			pushErrs[i] = co.peers[i].cli.PushClusterStats(ctx, co.global)
		}(i)
	}
	pwg.Wait()
	if err := errors.Join(pushErrs...); err != nil {
		return nil, fmt.Errorf("cluster: stat push: %w", err)
	}

	// Harvest targets: every node has the full entity table (pages are
	// partitioned, entities are not).
	var entErr error
	for _, peer := range co.peers {
		co.ents, entErr = peer.cli.Entities(ctx)
		if entErr == nil {
			break
		}
	}
	if entErr != nil {
		return nil, fmt.Errorf("cluster: entities: %w", entErr)
	}
	co.stats = Stats{
		Domain:      co.peers[0].cli.Stats().Domain,
		NumEntities: len(co.ents),
		NumPages:    global.NumDocs,
		NumTerms:    global.NumTerms,
		TotalTokens: global.TotalTokens,
		Mu:          mu,
		TopK:        topK,
	}
	return co, nil
}

// The coordinator is the backend of its server (see backend.go): every
// answer comes from the aggregated global model or a scatter over the nodes.

// Stats returns the aggregated serving statistics — field-for-field what
// a single-node server over the whole corpus reports.
func (co *Coordinator) Stats() Stats { return co.stats }

func (co *Coordinator) entities() []EntityInfo { return co.ents }

func (co *Coordinator) metrics(m *ServerMetrics) {
	cm := co.Metrics()
	m.Cluster = &cm
	m.Search.CacheHits, m.Search.CacheMisses = cm.FrontCache.Hits, cm.FrontCache.Misses
}

// scatterScratch is the pooled fan-out state of one scatter call: the
// per-partition response slots, the miss mask, the owner-chain buffer,
// the RankedDoc conversion arena with its per-partition list headers, the
// merge output, and the doc→hit materialization map.
type scatterScratch struct {
	perPart [][]SearchHit
	missing []bool
	owners  []int
	lists   [][]search.RankedDoc
	ranked  []search.RankedDoc
	merged  []search.RankedDoc
	byDoc   map[int64]SearchHit
}

var scatterScratchPool = sync.Pool{New: func() any { return new(scatterScratch) }}

// releaseScatterScratch drops the references that alias response data
// (the decoded hit slices handed into resp) and hands the scratch back.
func releaseScatterScratch(sc *scatterScratch) {
	for i := range sc.perPart {
		sc.perPart[i] = nil
	}
	for i := range sc.lists {
		sc.lists[i] = nil
	}
	clear(sc.byDoc)
	scatterScratchPool.Put(sc)
}

// search answers one seeded search: from the front cache when it holds the
// complete result, otherwise by fanning out to every partition's owner
// chain and merging the per-partition top-k into the global ranking. A
// partition whose owners all fail (or time out past the per-node deadline)
// is dropped and the response is flagged Partial; the error is non-nil only
// when the caller's ctx ended or no partition answered at all. Neither is
// ever cached. The hit list is the caller's to write into.
func (co *Coordinator) search(ctx context.Context, seed, query []textproc.Token, k int) (SearchResponse, error) {
	if k <= 0 {
		k = co.stats.TopK
	}
	if co.front == nil {
		return co.scatter(ctx, seed, query, k)
	}
	var kb [128]byte // a key longer than this costs one allocation, nothing else
	key := search.AppendSeededCacheKey(kb[:0], k, seed, query)
	if resp, ok := co.front.Get(key); ok {
		resp.Hits = slices.Clone(resp.Hits)
		return resp, nil
	}
	resp, err := co.scatter(ctx, seed, query, k)
	if err == nil && !resp.Partial {
		held := resp
		held.Hits = slices.Clone(resp.Hits)
		co.front.Put(key, held)
	}
	return resp, err
}

// scatter is the fan-out under search; every call is one count in
// ClusterMetrics.Scatters.
func (co *Coordinator) scatter(ctx context.Context, seed, query []textproc.Token, k int) (SearchResponse, error) {
	n := co.ring.Nodes()
	nR := co.ring.Replicas()

	sc := scatterScratchPool.Get().(*scatterScratch)
	perPart := sc.perPart
	if cap(perPart) < n {
		perPart = make([][]SearchHit, n)
	}
	perPart = perPart[:n]
	missing := sc.missing
	if cap(missing) < n {
		missing = make([]bool, n)
	}
	missing = missing[:n]
	owners := sc.owners
	if cap(owners) < n*nR {
		owners = make([]int, n*nR)
	}
	owners = owners[:n*nR]
	if sc.byDoc == nil {
		sc.byDoc = make(map[int64]SearchHit, k*2)
	}
	sc.perPart, sc.missing, sc.owners = perPart, missing, owners

	var wg sync.WaitGroup
	for part := 0; part < n; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			chain := owners[part*nR : part*nR : (part+1)*nR]
			hits, ok := co.searchPartition(ctx, part, seed, query, k, chain)
			perPart[part] = hits
			missing[part] = !ok
		}(part)
	}
	wg.Wait()

	total, missed := 0, 0
	for part := 0; part < n; part++ {
		if missing[part] {
			missed++
		} else {
			total += len(perPart[part])
		}
	}
	ranked := sc.ranked[:0]
	if cap(ranked) < total {
		ranked = make([]search.RankedDoc, 0, total)
	}
	lists := sc.lists[:0]
	for part := 0; part < n; part++ {
		if missing[part] {
			continue
		}
		start := len(ranked)
		for _, h := range perPart[part] {
			ranked = append(ranked, search.RankedDoc{Doc: int64(h.PageID), Score: h.Score})
			sc.byDoc[int64(h.PageID)] = h
		}
		lists = append(lists, ranked[start:len(ranked):len(ranked)])
	}
	merged := search.MergeTopKAppend(sc.merged[:0], k, lists)

	resp := SearchResponse{
		Query:   textproc.JoinQuery(query),
		Seed:    textproc.JoinQuery(seed),
		Partial: missed > 0,
		Hits:    make([]SearchHit, 0, len(merged)),
	}
	for _, rd := range merged {
		resp.Hits = append(resp.Hits, sc.byDoc[rd.Doc])
	}
	sc.ranked, sc.lists, sc.merged = ranked, lists, merged
	releaseScatterScratch(sc)

	co.scatters.Add(1)
	if err := ctx.Err(); err != nil {
		return SearchResponse{}, fmt.Errorf("cluster scatter: %w", err)
	}
	if missed == n {
		return SearchResponse{}, fmt.Errorf("cluster scatter: all %d partitions unavailable", n)
	}
	if missed > 0 {
		co.partials.Add(1)
	}
	return resp, nil
}

// searchPartition walks one partition's owner chain — primary first, then
// replicas — until an owner answers within the per-node deadline. Every
// post-primary success is a hedge (the failover the replicas exist for).
func (co *Coordinator) searchPartition(ctx context.Context, part int, seed, query []textproc.Token, k int, chain []int) ([]SearchHit, bool) {
	chain = co.ring.AppendOwners(chain, part)
	for oi, owner := range chain {
		if ctx.Err() != nil {
			return nil, false
		}
		peer := co.peers[owner]
		nctx, cancel := context.WithTimeout(ctx, co.nodeDeadline)
		peer.inFlight.Add(1)
		resp, err := peer.cli.ClusterSearch(nctx, part, seed, query, k)
		peer.inFlight.Add(-1)
		cancel()
		if err == nil {
			if oi > 0 {
				co.hedges.Add(1)
				peer.hedges.Add(1)
			}
			return resp.Hits, true
		}
		peer.errors.Add(1)
	}
	return nil, false
}

// pages sets dst[i] to the bytes the owners of ids[i] serve at
// /page/{id}: from the body cache, else waited for when another call is
// downloading it, else downloaded (fetch) and cached. Runs under the
// caller's ctx, not the scatter deadline: a slow bulk transfer is not a
// node failure. Bodies are checked on arrival (Client.PagesHTML).
func (co *Coordinator) pages(ctx context.Context, ids []corpus.PageID, dst []string) error {
	calls := make([]*flightCall[string], len(ids)) // per page not in the body cache: its flight
	var led []int
	var kb [binary.MaxVarintLen64]byte
	for i, id := range ids {
		if body, ok := co.bodies.get(binary.AppendUvarint(kb[:0], uint64(id))); ok {
			dst[i] = body
			continue
		}
		var lead bool
		if calls[i], lead = co.flight.join(id); lead {
			led = append(led, i)
		}
	}
	co.fetch(ctx, ids, led, dst, calls, nil, nil)
	for i, call := range calls {
		if call == nil {
			continue
		}
		var again bool
		var err error
		if dst[i], again, err = call.wait(ctx); again {
			err = co.pages(ctx, ids[i:i+1], dst[i:i+1])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fetch downloads the pages at positions led of ids into dst, one batch per
// owner node, caches each body and ends each led flight. Owners replicate
// whole partitions, so a page joins a batch already opened at an owner in
// its chain, else opens one at its least-in-flight owner (chain order
// breaking ties); owners in skip are passed over and a batch holds at most
// maxHave pages, what the route takes. A failed batch goes through fetch
// again with its owner skipped, and a success there is a hedge; a page left
// with no owner, or whose caller is gone, ends its flight with err.
func (co *Coordinator) fetch(ctx context.Context, ids []corpus.PageID, led []int, dst []string, calls []*flightCall[string], skip []int, err error) {
	type batch struct {
		owner int
		at    []int // positions in ids
		ids   []corpus.PageID
	}
	var batches []batch
	var chainBuf [8]int
	for _, i := range led {
		b, owner := -1, -1
		for _, o := range co.ring.AppendOwners(chainBuf[:0], co.ring.Partition(ids[i])) {
			if slices.Contains(skip, o) {
				continue
			}
			if b = slices.IndexFunc(batches, func(b batch) bool { return b.owner == o && len(b.ids) < maxHave }); b >= 0 {
				break
			}
			if owner < 0 || co.peers[o].inFlight.Load() < co.peers[owner].inFlight.Load() {
				owner = o
			}
		}
		if b < 0 && (owner < 0 || err != nil && ctx.Err() != nil) {
			co.flight.finish(ids[i], calls[i], "", err, ctx.Err() != nil)
			continue
		}
		if b < 0 {
			b, batches = len(batches), append(batches, batch{owner: owner})
		}
		batches[b].at, batches[b].ids = append(batches[b].at, i), append(batches[b].ids, ids[i])
	}
	run := func(b batch) {
		peer := co.peers[b.owner]
		co.bodyFetches.Add(1)
		peer.inFlight.Add(1)
		bodies, err := peer.cli.PagesHTML(ctx, b.ids)
		peer.inFlight.Add(-1)
		if err != nil {
			peer.errors.Add(1)
			co.fetch(ctx, ids, b.at, dst, calls, append(skip[:len(skip):len(skip)], b.owner), err)
			return
		}
		if len(skip) > 0 {
			co.hedges.Add(1)
			peer.hedges.Add(1)
		}
		for j, i := range b.at {
			dst[i] = bodies[j].HTML
			co.bodies.put(binary.AppendUvarint(nil, uint64(ids[i])), dst[i])
			co.flight.finish(ids[i], calls[i], dst[i], nil, false)
		}
	}
	var wg sync.WaitGroup
	for _, b := range batches[min(1, len(batches)):] {
		wg.Add(1)
		go func(b batch) {
			defer wg.Done()
			run(b)
		}(b)
	}
	if len(batches) > 0 {
		run(batches[0]) // inline: a lone batch starts no goroutine
	}
	wg.Wait()
}

// flightGroup is a minimal singleflight keyed by page ID: one owner
// download per page at a time, shared by every hit list asking meanwhile.
type flightGroup[V any] struct {
	mu sync.Mutex
	m  map[corpus.PageID]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	v    V
	err  error
	// canceled records whether the leader's OWN context was done when the
	// flight completed (see wait).
	canceled bool
	// joins counts the followers that found this call in flight, under
	// the group's mu: what a test waits on before it lets the leader end.
	joins int
}

// join returns the flight of id: the one in flight, joined, or a new one
// the caller leads (lead) and must end with finish.
func (g *flightGroup[V]) join(id corpus.PageID) (call *flightCall[V], lead bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if call, ok := g.m[id]; ok {
		call.joins++
		return call, false
	}
	if g.m == nil {
		g.m = make(map[corpus.PageID]*flightCall[V])
	}
	call = &flightCall[V]{done: make(chan struct{})}
	g.m[id] = call
	return call, true
}

// finish ends a led flight and frees id's slot for the next caller.
func (g *flightGroup[V]) finish(id corpus.PageID, call *flightCall[V], v V, err error, canceled bool) {
	call.v, call.err, call.canceled = v, err, canceled
	g.mu.Lock()
	delete(g.m, id)
	g.mu.Unlock()
	close(call.done)
}

// wait returns the flight's result, or ctx's error if ctx ends first. A
// leader's death by its own cancellation is not shared — it would poison
// every query waiting on the page — but tells a live waiter to go again.
// The signal is the leader's context state, not the error's identity, which
// per-request HTTP timeouts also produce (K waiters re-paying a dead
// server's retry budget).
func (call *flightCall[V]) wait(ctx context.Context) (v V, again bool, err error) {
	select {
	case <-call.done:
		if call.err != nil && call.canceled && ctx.Err() == nil {
			return v, true, nil
		}
		return call.v, false, call.err
	case <-ctx.Done():
		return v, false, ctx.Err()
	}
}

// ClusterNodeMetrics is one node's row in the fan-out gauges.
type ClusterNodeMetrics struct {
	Node string `json:"node"`
	// InFlight is the number of scatter attempts currently outstanding
	// against this node.
	InFlight int64 `json:"inFlight"`
	// Hedges counts failover requests this node served for a downed or
	// late peer.
	Hedges int64 `json:"hedges"`
	// Errors counts attempts against this node that failed terminally.
	Errors int64 `json:"errors"`
	// Client is the node transport's request/retry/error accounting.
	Client ClientMetrics `json:"client"`
}

// CacheMetrics is one bounded cache in the metrics payload — a
// coordinator's two caches in ClusterMetrics, every server's frame memo in
// ServerMetrics.Frames, a client process's decode memo in
// ClientMetrics.DecodeMemo: lifetime hits and misses and the entries held
// now, read together under the cache's own lock. Bytes, on all but the
// front cache, is the total size of the values held (a counter kept beside
// the cache, so it may trail Entries by an insert).
type CacheMetrics struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// ClusterMetrics is the coordinator section of /api/v1/metrics: the
// fan-out gauges the load harness calibrates cluster saturation with, and
// the coordinator's two caches.
type ClusterMetrics struct {
	Nodes    int `json:"nodes"`
	Replicas int `json:"replicas"`
	// Scatters counts real fan-outs: a search the front cache answered is
	// a FrontCache hit and no scatter.
	Scatters int64 `json:"scatters"`
	// Hedges counts scatter attempts and page batches that succeeded on a
	// replica after the primary failed or timed out.
	Hedges int64 `json:"hedges"`
	// BodyFetches counts the batched page requests sent to owner nodes,
	// failover batches included: the round trips BodyCache.Misses cost.
	BodyFetches int64 `json:"bodyFetches"`
	// Partials counts scatters served with one or more partitions missing.
	Partials int64 `json:"partials"`
	// FrontCache is the complete-result cache ahead of the fan-out (all
	// zeroes when it is off); BodyCache the bounded page-body cache, at
	// most maxBodies entries. PerNode[].Client.CachedPages stays 0: the
	// coordinator keeps no page in its node clients.
	FrontCache CacheMetrics         `json:"frontCache"`
	BodyCache  CacheMetrics         `json:"bodyCache"`
	PerNode    []ClusterNodeMetrics `json:"perNode"`
}

// Metrics snapshots the fan-out gauges.
func (co *Coordinator) Metrics() ClusterMetrics {
	m := ClusterMetrics{
		Nodes:       co.ring.Nodes(),
		Replicas:    co.ring.Replicas(),
		Scatters:    co.scatters.Load(),
		Hedges:      co.hedges.Load(),
		BodyFetches: co.bodyFetches.Load(),
		Partials:    co.partials.Load(),
		PerNode:     make([]ClusterNodeMetrics, len(co.peers)),
	}
	m.FrontCache.Hits, m.FrontCache.Misses, m.FrontCache.Entries = co.front.Stats()
	m.BodyCache = co.bodies.metrics()
	for i, peer := range co.peers {
		m.PerNode[i] = ClusterNodeMetrics{
			Node:     peer.base,
			InFlight: peer.inFlight.Load(),
			Hedges:   peer.hedges.Load(),
			Errors:   peer.errors.Load(),
			Client:   peer.cli.Metrics(),
		}
	}
	return m
}

// NewCoordinatorServer mounts a coordinator behind the standard serving
// surface: /api/v1/{stats,search,entities,metrics} and /page/{id}
// answer from the cluster (searches scatter-gather, pages proxy to their
// owning node), with the same admission control, codec negotiation and
// error envelope as a single-node server. The jobs API answers 501 here:
// a harvest through a cluster is a Client session dialed to this server.
func NewCoordinatorServer(co *Coordinator) *Server {
	return newServer(co)
}
