package search

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"l2q/internal/corpus"
	"l2q/internal/textproc"
)

// Distributed retrieval: the corpus is doc-partitioned over N nodes via a
// consistent-hash ring, each node scores its partitions locally, and a
// coordinator merges the per-node top-K lists into the global ranking.
// Scoring is corpus-stat-dependent (p(t|C) reads collection totals, μ the
// mean document length), so per-partition engines are only comparable
// after the coordinator distributes the global CollectionStats — with that
// override in place, every per-term score a partition computes is
// bit-identical to what the single-node engine computes for the same
// document, and the merged ranking equals the single-node ranking exactly
// (partitions are disjoint, ties break on the global document ordinal, and
// each partition returns its local top-K so the global top-K is contained
// in the union).

// DefaultVNodes is the ring's virtual-node multiplier: each node owns this
// many points on the hash circle so partition sizes even out.
const DefaultVNodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node int32
}

// Ring is the deterministic doc-partitioning map of a cluster: consistent
// hashing over FNV-1a (never maphash, whose seed is process-local — every
// process in the cluster must agree on the layout), with vnodes virtual
// points per node. Partitions coincide with nodes: document d belongs to
// partition Partition(d), whose primary is the node of the same ordinal
// and whose replicas are the next nodes clockwise on the node ring. The
// zero value is not usable; create with NewRing. A Ring is immutable and
// safe for concurrent use.
type Ring struct {
	nodes    int
	replicas int
	points   []ringPoint
}

// NewRing builds the partition map for a cluster of n nodes with the given
// replication factor (clamped to [1, n]) and virtual-node multiplier
// (≤ 0 = DefaultVNodes). Two rings built with equal parameters agree on
// every placement, in any process.
func NewRing(n, replicas, vnodes int) *Ring {
	if n < 1 {
		n = 1
	}
	replicas = ClampReplicas(replicas, n)
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		nodes:    n,
		replicas: replicas,
		points:   make([]ringPoint, 0, n*vnodes),
	}
	var key [16]byte
	for node := 0; node < n; node++ {
		for v := 0; v < vnodes; v++ {
			binary.LittleEndian.PutUint64(key[:8], uint64(node))
			binary.LittleEndian.PutUint64(key[8:], uint64(v))
			r.points = append(r.points, ringPoint{hash: fnvHash(key[:]), node: int32(node)})
		}
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		if a.hash != b.hash {
			if a.hash < b.hash {
				return -1
			}
			return 1
		}
		// Hash collisions resolve by node ordinal so the layout stays
		// deterministic regardless of sort internals.
		return int(a.node) - int(b.node)
	})
	return r
}

// fnvHash is the placement hash (FNV-1a, 64-bit) of the ring's points and
// documents: the same value in every process.
func fnvHash(p []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}

// ClampReplicas is the one rule that turns a requested replication factor
// into the effective one for a cluster of nodes: at least 1, at most every
// node. The ring, a node and the coordinator all apply it to the same two
// inputs, so processes started with the same -nodes/-replicas agree on the
// geometry even where the request was out of range (-replicas 2 on a
// 1-node cluster is replicas 1 everywhere).
func ClampReplicas(replicas, nodes int) int {
	return max(1, min(replicas, nodes))
}

// Nodes returns the cluster size (== the partition count).
func (r *Ring) Nodes() int { return r.nodes }

// Replicas returns the replication factor.
func (r *Ring) Replicas() int { return r.replicas }

// Partition maps a document (by its global corpus PageID) to its owning
// partition: the first virtual point clockwise from the document's hash.
func (r *Ring) Partition(id corpus.PageID) int {
	if r.nodes == 1 {
		return 0
	}
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], uint64(id))
	h := fnvHash(key[:])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].node)
}

// Holds reports whether node serves the document: whether it is one of
// the owners of the document's partition. It is the page predicate a node
// generates or loads its corpus under.
func (r *Ring) Holds(node int, id corpus.PageID) bool {
	// Owners(part) is part, part+1, … part+replicas-1 (mod nodes).
	return ((node-r.Partition(id))%r.nodes+r.nodes)%r.nodes < r.replicas
}

// AppendOwners appends the nodes serving partition part in failover order —
// the primary (node part) followed by the replica chain (the next
// Replicas-1 nodes clockwise on the node ring) — and returns the grown
// slice. Whole partitions replicate as a unit, so any single owner holds
// the complete partition and a scatter needs exactly one success per
// partition.
func (r *Ring) AppendOwners(dst []int, part int) []int {
	for i := 0; i < r.replicas; i++ {
		dst = append(dst, (part+i)%r.nodes)
	}
	return dst
}

// AppendOwnedBy appends the partitions node serves, primary first:
// partition node itself, then the partitions for which the node is a
// replica (the previous Replicas-1 partitions counterclockwise). It is
// the exact inverse of AppendOwners: part ∈ OwnedBy(n) ⇔ n is one of
// part's owners.
func (r *Ring) AppendOwnedBy(dst []int, node int) []int {
	for i := 0; i < r.replicas; i++ {
		dst = append(dst, ((node-i)%r.nodes+r.nodes)%r.nodes)
	}
	return dst
}

// OwnedBy returns AppendOwnedBy into a fresh slice.
func (r *Ring) OwnedBy(node int) []int {
	return r.AppendOwnedBy(make([]int, 0, r.replicas), node)
}

// PartitionPages splits pages into Nodes() per-partition groups,
// preserving the input (global document) order within each group —
// partition-local document ordinals must sort the same way as global
// ordinals or tie-breaks would diverge from the single-node ranking.
func (r *Ring) PartitionPages(pages []*corpus.Page) [][]*corpus.Page {
	out := make([][]*corpus.Page, r.nodes)
	for _, p := range pages {
		part := r.Partition(p.ID)
		out[part] = append(out[part], p)
	}
	return out
}

// CollectionStats is the global collection model a coordinator distributes
// to its nodes: everything the scoring function reads beyond per-document
// state. With an engine's stats overridden to the whole-corpus values, a
// partition-local engine scores each of its documents exactly as the
// single-node engine would. NumDocs is not a scoring input (it is no part
// of StatSource): the coordinator derives μ (AutoMu) and reports the
// collection size from it.
type CollectionStats struct {
	CollFreq    map[textproc.Token]int
	TotalTokens int
	NumTerms    int
	NumDocs     int
}

// CollectionStats implements StatSource, so a materialized snapshot can be
// installed as an engine's scoring override (WithCollectionStats).

func (st *CollectionStats) StatCollFreq(t textproc.Token) int { return st.CollFreq[t] }
func (st *CollectionStats) StatTotalTokens() int              { return st.TotalTokens }
func (st *CollectionStats) StatNumTerms() int                 { return st.NumTerms }

// StatsOf extracts an index's own collection statistics — the values an
// engine over that index scores with. A cluster node reports StatsOf its
// primary partition's index (primaries are disjoint and cover the corpus,
// so the coordinator's per-field sums are exact), and tests build the
// expected global stats as StatsOf the full single-node index.
func StatsOf(idx *Index) *CollectionStats {
	st := &CollectionStats{
		CollFreq:    make(map[textproc.Token]int, idx.NumTerms()),
		TotalTokens: idx.TotalTokens(),
		NumTerms:    idx.NumTerms(),
		NumDocs:     idx.NumDocs(),
	}
	idx.Terms(func(t textproc.Token, cf int) { st.CollFreq[t] = cf })
	return st
}

// MergeStats accumulates src into dst field-by-field (map entries sum) and
// recomputes NumTerms as the merged vocabulary size. The coordinator folds
// each node's primary-partition stats into one global model this way.
func MergeStats(dst, src *CollectionStats) {
	if dst.CollFreq == nil {
		dst.CollFreq = make(map[textproc.Token]int, len(src.CollFreq))
	}
	for t, n := range src.CollFreq {
		dst.CollFreq[t] += n
	}
	dst.TotalTokens += src.TotalTokens
	dst.NumDocs += src.NumDocs
	dst.NumTerms = len(dst.CollFreq)
}

// WithCollectionStats returns a copy of the engine whose collection-level
// statistics (the p(t|C) inputs) come from st instead of the engine's own
// index.
// Per-document state (term frequencies, document lengths) still comes from
// the index. Passing nil restores a one-segment engine's index-local
// statistics.
func (e *Engine) WithCollectionStats(st *CollectionStats) *Engine {
	cp := *e
	if st == nil {
		cp.stats = nil // a nil *CollectionStats must read as "no override"
	} else {
		cp.stats = st
	}
	cp.cache = e.cache.fresh()
	return &cp
}

// RankedDoc is one (global document, score) pair as exchanged between
// cluster nodes: the document is identified by its corpus PageID — the
// global ordinal every node agrees on — because partition-local ordinals
// are meaningless across nodes.
type RankedDoc struct {
	Doc   int64
	Score float64
}

// betterRanked is betterCand over the cluster exchange type: higher score
// first, ties to the lower global document ordinal.
func betterRanked(a, b RankedDoc) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}

// compareRanked adapts betterRanked to slices.SortFunc.
func compareRanked(a, b RankedDoc) int {
	switch {
	case betterRanked(a, b):
		return -1
	case betterRanked(b, a):
		return 1
	}
	return 0
}

// mergeScratch is the pooled heap backing of one MergeTopKAppend call.
// RankedDoc holds no pointers, so pooling retains nothing.
type mergeScratch struct {
	h []RankedDoc
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// MergeTopKAppend merges per-partition ranked lists into the global top-k,
// appended to dst. It reuses the engine's top-K heap (the PR 1 merge
// machinery) over pooled scratch, so with a reused dst the merge allocates
// nothing. Documents must be distinct across lists (partitions are
// disjoint), which makes the order total and the merge deterministic.
func MergeTopKAppend(dst []RankedDoc, k int, lists [][]RankedDoc) []RankedDoc {
	if k <= 0 {
		return dst
	}
	sc := mergeScratchPool.Get().(*mergeScratch)
	h := topKHeap[RankedDoc]{k: k, better: betterRanked, h: sc.h[:0]}
	for _, l := range lists {
		for _, rd := range l {
			h.push(rd)
		}
	}
	slices.SortFunc(h.h, compareRanked)
	dst = append(dst, h.h...)
	sc.h = h.h
	mergeScratchPool.Put(sc)
	return dst
}

// ClusterSpec pins one node's view of the cluster geometry; every node and
// the coordinator must agree on Nodes and Replicas or placements diverge.
// Replicas is the requested factor: Ring clamps it.
type ClusterSpec struct {
	Nodes    int
	Replicas int
	NodeID   int
}

// Ring validates the spec and returns the node's partition map, with the
// replication factor clamped by ClampReplicas (read it back from the ring).
func (s ClusterSpec) Ring() (*Ring, error) {
	if s.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", s.Nodes)
	}
	if s.NodeID < 0 || s.NodeID >= s.Nodes {
		return nil, fmt.Errorf("cluster: node id %d out of range [0,%d)", s.NodeID, s.Nodes)
	}
	return NewRing(s.Nodes, s.Replicas, 0), nil
}
