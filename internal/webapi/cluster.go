package webapi

// The node half of distributed retrieval (see coordinator.go for the
// scatter-gather side). A ClusterNode holds the partitions the consistent-
// hash ring assigns to it — its primary partition plus the partitions it
// replicates — each behind its own partition-local index and engine, and
// nothing else: no page of another partition, no whole-corpus index. Local
// scoring only becomes globally comparable after the coordinator pushes
// the aggregated CollectionStats (p(t|C), document frequencies, corpus
// size and the global μ all read collection totals); until then the node
// answers cluster searches 503 (retryable), so a racing coordinator just
// retries instead of merging incomparable scores.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"l2q/internal/corpus"
	"l2q/internal/html"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/textproc"
)

// NodeStatsPayload is the GET /api/v1/cluster/stats response of a node:
// the collection statistics of its PRIMARY partition only. Primaries are
// disjoint and cover the corpus, so the coordinator's field-wise sums
// reproduce the single-node statistics exactly; reporting replicated
// partitions too would double-count them.
type NodeStatsPayload struct {
	Node        int            `json:"node"`
	Nodes       int            `json:"nodes"`
	Replicas    int            `json:"replicas"`
	Partition   int            `json:"partition"`
	NumDocs     int            `json:"numDocs"`
	TotalTokens int            `json:"totalTokens"`
	TopK        int            `json:"topK"`
	CollFreq    map[string]int `json:"collFreq"`
}

// GlobalStatsPayload is the POST /api/v1/cluster/stats body: the
// coordinator's aggregated collection model, pushed to every node at
// registration. Applying it re-bases each partition engine onto the
// global statistics and μ, after which per-node scores are bit-identical
// to the single-node engine's. A body from an older coordinator may still
// carry a "docFreq" key; encoding/json drops it.
type GlobalStatsPayload struct {
	NumDocs     int            `json:"numDocs"`
	TotalTokens int            `json:"totalTokens"`
	NumTerms    int            `json:"numTerms"`
	Mu          float64        `json:"mu"`
	TopK        int            `json:"topK"`
	CollFreq    map[string]int `json:"collFreq"`
}

// ClusterNode serves one node's slice of a doc-partitioned cluster: the
// pages and partition engines of every partition the ring assigns to this
// node (primary first, then replicas). It is the backend of the server
// NewNodeServer returns. Safe for concurrent use.
type ClusterNode struct {
	spec search.ClusterSpec // Replicas is the effective (clamped) factor
	topK int

	// domain and ents are the whole corpus's: harvest targets are not
	// partitioned, and the coordinator reads the table from any node.
	domain corpus.Domain
	ents   []*corpus.Entity
	// byID holds the pages of the owned partitions — everything /page/{id}
	// and /api/v1/cluster/pages can answer here.
	byID map[corpus.PageID]*corpus.Page

	// primary is the primary partition's index — the node's contribution
	// to the coordinator's stat aggregation.
	primary *search.Index

	mu      sync.RWMutex
	engines map[int]*search.Engine // partition → engine (rebased after stat push)
	ready   bool
}

// NewNodeServer wires the server of one cluster node: of c's pages it
// keeps those whose partition the ring described by spec assigns to this
// node (c may already be filtered to them — generate or load it under
// the ring's Holds predicate and the rest never exists in this process),
// builds one index + engine per owned partition, and answers
// /api/v1/cluster/{search,stats,pages}, /page/{id} for the pages it holds
// (404 otherwise), /api/v1/{stats,entities,metrics} and /healthz. Whole-corpus
// /api/v1/search is refused: a node could only rank its own partitions,
// and passing that off as the corpus ranking would be silently wrong.
// spec.Replicas is clamped to [1, Nodes]; topK ≤ 0 picks
// search.DefaultTopK. Every node must be built from the same corpus (same
// pages, same IDs) — partitioning is deterministic, so each extracts its
// own slices. The partition engines run without a query cache: the
// coordinator's front cache answers the repeats before they get here, and
// behind it a same-sized node cache sees only its misses (measured hit
// ratio 0.2 %, DESIGN.md "Distributed retrieval").
func NewNodeServer(c *corpus.Corpus, spec search.ClusterSpec, topK int) (*Server, error) {
	ring, err := spec.Ring()
	if err != nil {
		return nil, err
	}
	spec.Replicas = ring.Replicas()
	if topK <= 0 {
		topK = search.DefaultTopK
	}
	n := &ClusterNode{
		spec:    spec,
		topK:    topK,
		domain:  c.Domain,
		ents:    c.Entities,
		byID:    make(map[corpus.PageID]*corpus.Page, len(c.Pages)), // exact for a corpus already filtered
		engines: make(map[int]*search.Engine, spec.Replicas),
	}
	groups := ring.PartitionPages(c.Pages)
	for _, part := range ring.OwnedBy(spec.NodeID) {
		for _, p := range groups[part] {
			n.byID[p.ID] = p
		}
		idx := search.BuildIndex(groups[part])
		n.engines[part] = search.NewEngineOpts(idx, search.Options{CacheSize: -1}).WithTopK(topK)
		if part == spec.NodeID {
			n.primary = idx
		}
	}
	return newServer(n), nil
}

// Node returns the cluster node a NewNodeServer server serves, and nil on
// every other server: it marks the server as one node of a doc-partitioned
// cluster and enables the /api/v1/cluster/* endpoints (partition-local
// search, stat registration/push).
func (s *Server) Node() *ClusterNode {
	n, _ := s.backend.(*ClusterNode)
	return n
}

// Spec returns the node's cluster geometry.
func (n *ClusterNode) Spec() search.ClusterSpec { return n.spec }

// LocalStats builds the node's registration report from its primary
// partition (see NodeStatsPayload for why replicas are excluded).
func (n *ClusterNode) LocalStats() NodeStatsPayload {
	st := search.StatsOf(n.primary)
	return NodeStatsPayload{
		Node:        n.spec.NodeID,
		Nodes:       n.spec.Nodes,
		Replicas:    n.spec.Replicas,
		Partition:   n.spec.NodeID,
		NumDocs:     st.NumDocs,
		TotalTokens: st.TotalTokens,
		TopK:        n.topK,
		CollFreq:    st.CollFreq,
	}
}

// ApplyGlobalStats rebases every partition engine onto the coordinator's
// aggregated collection model and marks the node ready. Idempotent — a
// coordinator retrying its push is harmless. The body comes off the
// network, so the map is checked like the scalars: with collFreq missing
// or short the node would turn ready and score the tokens it lacks at
// p(t|C)'s add-one floor, silently disagreeing with its replicas. A
// rejected push leaves the node as it was.
func (n *ClusterNode) ApplyGlobalStats(g *GlobalStatsPayload) error {
	if g.NumDocs <= 0 || g.TotalTokens <= 0 || g.NumTerms <= 0 || g.Mu <= 0 || g.TopK <= 0 {
		return fmt.Errorf("cluster: implausible global stats (docs=%d toks=%d terms=%d mu=%v k=%d)",
			g.NumDocs, g.TotalTokens, g.NumTerms, g.Mu, g.TopK)
	}
	if len(g.CollFreq) != g.NumTerms {
		return fmt.Errorf("cluster: global stats carry %d collection frequencies for %d terms", len(g.CollFreq), g.NumTerms)
	}
	for t, cf := range g.CollFreq {
		if cf <= 0 {
			return fmt.Errorf("cluster: global stats give %q the collection frequency %d", t, cf)
		}
	}
	st := &search.CollectionStats{
		CollFreq:    g.CollFreq,
		TotalTokens: g.TotalTokens,
		NumTerms:    g.NumTerms,
		NumDocs:     g.NumDocs,
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for part, e := range n.engines {
		n.engines[part] = e.WithCollectionStats(st).WithMu(g.Mu).WithTopK(g.TopK)
	}
	n.topK = g.TopK
	n.ready = true
	return nil
}

// searchPartition runs a seeded search over one owned partition,
// returning the partition-local top-k (k ≤ 0: the cluster's top-k). The
// bool reports readiness; the error reports an unowned partition.
func (n *ClusterNode) searchPartition(part int, seed, query []textproc.Token, k int) ([]search.Result, bool, error) {
	n.mu.RLock()
	ready := n.ready
	e := n.engines[part]
	n.mu.RUnlock()
	if !ready {
		return nil, false, nil
	}
	if e == nil {
		return nil, true, fmt.Errorf("partition %d is not owned by node %d", part, n.spec.NodeID)
	}
	return e.SearchWithSeedTopKAppend(nil, k, seed, query), true, nil
}

// handleClusterStats serves a node's local stats (GET) and accepts the
// coordinator's global stats push (POST).
func (s *Server) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	node := s.Node()
	if r.Method == http.MethodPost {
		if node == nil {
			writeError(w, http.StatusNotImplemented, "cluster stats push not supported: not a cluster node")
			return
		}
		body, ok := readBody(w, r, maxResponseBytes)
		if !ok {
			return
		}
		var g GlobalStatsPayload
		if err := json.Unmarshal(body, &g); err != nil {
			writeError(w, http.StatusBadRequest, "bad global stats payload: "+err.Error())
			return
		}
		if err := node.ApplyGlobalStats(&g); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, map[string]bool{"ok": true})
		return
	}
	if node == nil {
		writeError(w, http.StatusNotImplemented, "cluster endpoints not enabled (start with a cluster spec)")
		return
	}
	// JSON whatever Accept says: once per node per coordinator boot, it
	// is not worth a second codec (wire kind 7 is retired).
	writeJSON(w, node.LocalStats())
}

// handleClusterSearch serves one partition's local top-k — the node-local
// scatter target the coordinator fans out to. 503 (retryable) until the
// global stats are applied: scores computed before the push would not be
// comparable across nodes.
func (s *Server) handleClusterSearch(w http.ResponseWriter, r *http.Request) {
	node := s.Node()
	if node == nil {
		writeError(w, http.StatusNotImplemented, "cluster search not supported: not a cluster node")
		return
	}
	qv := r.URL.Query()
	seed, query, k, ok := searchParams(w, qv)
	if !ok {
		return
	}
	part, err := strconv.Atoi(qv.Get("part"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad part parameter")
		return
	}
	res, ready, err := node.searchPartition(part, seed, query, k)
	if !ready {
		writeError(w, http.StatusServiceUnavailable, "collection stats not yet distributed by the coordinator")
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp := newSearchResponse(seed, query, res)
	s.respond(w, r, wireSearch, func(e *store.Enc) { encodeSearchWire(e, resp) }, resp)
}

// PageBody is one page of a /api/v1/cluster/pages response.
type PageBody struct {
	PageID corpus.PageID `json:"pageId"`
	HTML   string        `json:"html"`
}

// handleClusterPages serves the pages ids names, in order, or a 404 when
// the node lacks one: a coordinator's one request per owner per hit list.
func (s *Server) handleClusterPages(w http.ResponseWriter, r *http.Request) {
	node := s.Node()
	if node == nil {
		writeError(w, http.StatusNotImplemented, "cluster pages not supported: not a cluster node")
		return
	}
	lists := r.URL.Query()["ids"]
	if len(lists) != 1 || lists[0] == "" {
		writeError(w, http.StatusBadRequest, "bad ids parameter: want one non-empty list")
		return
	}
	ids, ok := idList(w, "ids", lists[0])
	if !ok {
		return
	}
	bodies := make([]string, len(ids))
	if err := node.pages(r.Context(), ids, bodies); err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	resp := make([]PageBody, len(ids))
	for i, id := range ids {
		resp[i] = PageBody{PageID: id, HTML: bodies[i]}
	}
	s.respond(w, r, wirePages, func(e *store.Enc) { encodePagesWire(e, resp) }, resp)
}

// Partitions returns the partitions this node serves (primary plus
// replicated), in ascending order.
func (n *ClusterNode) Partitions() []int {
	n.mu.RLock()
	out := make([]int, 0, len(n.engines))
	for p := range n.engines {
		out = append(out, p)
	}
	n.mu.RUnlock()
	sort.Ints(out)
	return out
}

// errNodeSearch refuses a whole-corpus search on a node. 501: re-issuing
// the request here can never succeed.
var errNodeSearch = httpErrorf(http.StatusNotImplemented,
	"a cluster node ranks only its own partitions: send whole-corpus searches to the coordinator (/api/v1/search there; a node answers /api/v1/cluster/search?part=)")

// Stats describes what this node holds: the whole entity table, the pages
// of its owned partitions, and its primary partition's engine — local
// statistics until the coordinator's push, the global model after.
func (n *ClusterNode) Stats() Stats {
	n.mu.RLock()
	e := n.engines[n.spec.NodeID]
	n.mu.RUnlock()
	return Stats{
		Domain:      string(n.domain),
		NumEntities: len(n.ents),
		NumPages:    len(n.byID),
		NumTerms:    e.NumTerms(),
		TotalTokens: e.TotalTokens(),
		Mu:          e.Mu(),
		TopK:        e.TopK(),
	}
}

// The backend a node server serves from (see backend.go).

func (n *ClusterNode) search(context.Context, []textproc.Token, []textproc.Token, int) (SearchResponse, error) {
	return SearchResponse{}, errNodeSearch
}

func (n *ClusterNode) entities() []EntityInfo { return entityInfos(n.ents) }

func (n *ClusterNode) pages(_ context.Context, ids []corpus.PageID, dst []string) error {
	for i, id := range ids {
		p, ok := n.byID[id]
		if !ok {
			return httpErrorf(http.StatusNotFound, "no such page %d on node %d", id, n.spec.NodeID)
		}
		dst[i] = html.RenderPage(p)
	}
	return nil
}

func (n *ClusterNode) metrics(m *ServerMetrics) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, e := range n.engines {
		visited, scored := e.PassStats()
		m.Search.DocsVisited += visited
		m.Search.DocsScored += scored
	}
}
