package webapi

// The node half of distributed retrieval (see coordinator.go for the
// scatter-gather side). A ClusterNode owns the partitions the consistent-
// hash ring assigns to it — its primary partition plus the partitions it
// replicates — each behind its own partition-local index and engine. Local
// scoring only becomes globally comparable after the coordinator pushes
// the aggregated CollectionStats (p(t|C), document frequencies, corpus
// size and the global μ all read collection totals); until then the node
// answers cluster searches 503 (retryable), so a racing coordinator just
// retries instead of merging incomparable scores.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"l2q/internal/corpus"
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
	DocFreq     map[string]int `json:"docFreq"`
}

// GlobalStatsPayload is the POST /api/v1/cluster/stats body: the
// coordinator's aggregated collection model, pushed to every node at
// registration. Applying it re-bases each partition engine onto the
// global statistics and μ, after which per-node scores are bit-identical
// to the single-node engine's.
type GlobalStatsPayload struct {
	NumDocs     int            `json:"numDocs"`
	TotalTokens int            `json:"totalTokens"`
	NumTerms    int            `json:"numTerms"`
	Mu          float64        `json:"mu"`
	TopK        int            `json:"topK"`
	CollFreq    map[string]int `json:"collFreq"`
	DocFreq     map[string]int `json:"docFreq"`
}

// ClusterNode serves one node's slice of a doc-partitioned cluster: the
// partition engines for every partition the ring assigns to this node
// (primary first, then replicas). Mount it on a Server via the Node field
// to expose the /api/v1/cluster/* endpoints. Safe for concurrent use.
type ClusterNode struct {
	spec search.ClusterSpec
	ring *search.Ring
	topK int

	// primary is the primary partition's index — the node's contribution
	// to the coordinator's stat aggregation.
	primary *search.Index

	mu      sync.RWMutex
	engines map[int]*search.Engine // partition → engine (rebased after stat push)
	ready   bool
}

// NewClusterNode partitions c over the ring described by spec and builds
// one index + engine per partition this node owns. topK ≤ 0 picks
// search.DefaultTopK. The corpus must be the same (same pages, same IDs)
// on every node — partitioning is deterministic, so each node extracts
// its own slices from the shared store.
func NewClusterNode(c *corpus.Corpus, spec search.ClusterSpec, opts search.Options, topK int) (*ClusterNode, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if topK <= 0 {
		topK = search.DefaultTopK
	}
	ring := search.NewRing(spec.Nodes, spec.Replicas, 0)
	groups := ring.PartitionPages(c.Pages)
	n := &ClusterNode{
		spec:    spec,
		ring:    ring,
		topK:    topK,
		engines: make(map[int]*search.Engine, spec.Replicas),
	}
	for _, part := range ring.OwnedBy(spec.NodeID) {
		idx := search.BuildIndex(groups[part])
		n.engines[part] = search.NewEngineOpts(idx, opts).WithTopK(topK)
		if part == spec.NodeID {
			n.primary = idx
		}
	}
	return n, nil
}

// Spec returns the node's cluster geometry.
func (n *ClusterNode) Spec() search.ClusterSpec { return n.spec }

// Ready reports whether the coordinator's global stats have been applied.
func (n *ClusterNode) Ready() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ready
}

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
		DocFreq:     st.DocFreq,
	}
}

// ApplyGlobalStats rebases every partition engine onto the coordinator's
// aggregated collection model and marks the node ready. Idempotent — a
// coordinator retrying its push is harmless.
func (n *ClusterNode) ApplyGlobalStats(g *GlobalStatsPayload) error {
	if g.NumDocs <= 0 || g.TotalTokens <= 0 || g.NumTerms <= 0 || g.Mu <= 0 || g.TopK <= 0 {
		return fmt.Errorf("cluster: implausible global stats (docs=%d toks=%d terms=%d mu=%v k=%d)",
			g.NumDocs, g.TotalTokens, g.NumTerms, g.Mu, g.TopK)
	}
	st := &search.CollectionStats{
		CollFreq:    g.CollFreq,
		DocFreq:     g.DocFreq,
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
	if r.Method == http.MethodPost {
		if s.Node == nil {
			writeError(w, http.StatusNotImplemented, "cluster stats push not supported: not a cluster node")
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxResponseBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
			return
		}
		var g GlobalStatsPayload
		if err := json.Unmarshal(body, &g); err != nil {
			writeError(w, http.StatusBadRequest, "bad global stats payload: "+err.Error())
			return
		}
		if err := s.Node.ApplyGlobalStats(&g); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, map[string]bool{"ok": true})
		return
	}
	if s.Node == nil {
		writeError(w, http.StatusNotImplemented, "cluster endpoints not enabled (start with a cluster spec)")
		return
	}
	st := s.Node.LocalStats()
	s.respond(w, r, wireNodeStats, func(e *store.Enc) { encodeNodeStatsWire(e, st) }, st)
}

// handleClusterSearch serves one partition's local top-k — the node-local
// scatter target the coordinator fans out to. 503 (retryable) until the
// global stats are applied: scores computed before the push would not be
// comparable across nodes.
func (s *Server) handleClusterSearch(w http.ResponseWriter, r *http.Request) {
	if s.Node == nil {
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
	res, ready, err := s.Node.searchPartition(part, seed, query, k)
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

// Partitions returns the partitions this node serves (primary plus
// replicated), in ascending order.
func (n *ClusterNode) Partitions() []int { return n.sortedParts() }

// sortedParts returns a node's owned partitions in ascending order (for
// log lines and tests).
func (n *ClusterNode) sortedParts() []int {
	n.mu.RLock()
	out := make([]int, 0, len(n.engines))
	for p := range n.engines {
		out = append(out, p)
	}
	n.mu.RUnlock()
	sort.Ints(out)
	return out
}
