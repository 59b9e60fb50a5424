package search

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"l2q/internal/corpus"
)

// TestRingDeterministicAcrossBuilds holds the placement map stable across
// independently built rings — the property the cluster relies on, since
// the coordinator and every node build their own Ring from the shared
// geometry and must agree on ownership without ever exchanging it.
func TestRingDeterministicAcrossBuilds(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		a := NewRing(n, 2, 0)
		b := NewRing(n, 2, 0)
		for id := corpus.PageID(0); id < 2000; id++ {
			pa, pb := a.Partition(id), b.Partition(id)
			if pa != pb {
				t.Fatalf("n=%d: ring disagreement for doc %d: %d vs %d", n, id, pa, pb)
			}
			if pa < 0 || pa >= n {
				t.Fatalf("n=%d: partition %d out of range for doc %d", n, pa, id)
			}
		}
	}
}

// TestRingOwnersAndCover checks the replica chain: owners are distinct,
// the primary leads, OwnedBy is the exact inverse of AppendOwners, and
// partitions spread reasonably evenly over nodes.
func TestRingOwnersAndCover(t *testing.T) {
	r := NewRing(5, 3, 0)
	for part := 0; part < 5; part++ {
		owners := r.AppendOwners(nil, part)
		if len(owners) != 3 {
			t.Fatalf("partition %d: %d owners, want 3", part, len(owners))
		}
		if owners[0] != part {
			t.Fatalf("partition %d: primary is node %d", part, owners[0])
		}
		seen := map[int]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("partition %d: duplicate owner %d", part, o)
			}
			seen[o] = true
			found := false
			for _, p := range r.OwnedBy(o) {
				if p == part {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d owns partition %d per Owners but not per OwnedBy", o, part)
			}
		}
	}
	// Balance: with vnodes the biggest partition should not dwarf the rest.
	counts := make([]int, 5)
	for id := corpus.PageID(0); id < 10000; id++ {
		counts[r.Partition(id)]++
	}
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d owns no documents out of 10000", p)
		}
		if c > 10000/2 {
			t.Fatalf("partition %d owns %d of 10000 documents — ring badly unbalanced", p, c)
		}
	}
}

// TestMergeTopKMatchesSort property-tests the cluster merge against a full
// sort of the concatenated lists, with heavy ties to exercise the global
// document-ordinal tie-break.
func TestMergeTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	for trial := 0; trial < 200; trial++ {
		nLists := 1 + rng.IntN(5)
		k := 1 + rng.IntN(12)
		var all []RankedDoc
		lists := make([][]RankedDoc, nLists)
		next := int64(0)
		for i := range lists {
			for j := 0; j < rng.IntN(40); j++ {
				rd := RankedDoc{Doc: next, Score: float64(rng.IntN(6))}
				next++
				lists[i] = append(lists[i], rd)
				all = append(all, rd)
			}
		}
		want := append([]RankedDoc(nil), all...)
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && betterRanked(want[j], want[j-1]); j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		if k > len(want) {
			k = len(want)
		}
		got := MergeTopKAppend(nil, k, lists)
		if !reflect.DeepEqual(got, want[:k]) {
			t.Fatalf("trial %d: merge diverges from sort:\n got %v\nwant %v", trial, got, want[:k])
		}
	}
}

// TestPartitionedEnginesMatchSingleNode is the engine-level half of the
// tentpole's differential guarantee: a 3-node doc-partitioned split, with
// global CollectionStats and the global μ distributed to every partition
// engine, merges to rankings bit-identical to the single-node engine —
// scores included.
func TestPartitionedEnginesMatchSingleNode(t *testing.T) {
	pages, queries := diffCorpus(t, 11)
	fullIdx := BuildIndex(pages)
	global := StatsOf(fullIdx)
	mu := AutoMu(fullIdx.NumDocs(), fullIdx.TotalTokens())

	ring := NewRing(3, 2, 0)
	groups := ring.PartitionPages(pages)

	// The aggregation the coordinator performs over per-node reports must
	// reproduce the single-node stats exactly.
	merged := &CollectionStats{}
	for _, grp := range groups {
		MergeStats(merged, StatsOf(BuildIndex(grp)))
	}
	if !reflect.DeepEqual(merged, global) {
		t.Fatalf("merged per-partition stats diverge from single-node stats:\n got %+v\nwant %+v",
			statsSummary(merged), statsSummary(global))
	}

	full := NewEngineOpts(fullIdx, Options{}).WithTopK(8)
	parts := make([]*Engine, len(groups))
	for p, grp := range groups {
		parts[p] = NewEngineOpts(BuildIndex(grp), Options{}).
			WithTopK(8).WithCollectionStats(global).WithMu(mu)
	}
	for qi, q := range queries {
		want := full.SearchWithSeed(nil, q)
		lists := make([][]RankedDoc, len(parts))
		byDoc := make(map[int64]Result)
		for p, e := range parts {
			for _, res := range e.SearchWithSeed(nil, q) {
				rd := RankedDoc{Doc: int64(res.Page.ID), Score: res.Score}
				lists[p] = append(lists[p], rd)
				byDoc[rd.Doc] = res
			}
		}
		mergedTop := MergeTopKAppend(nil, 8, lists)
		if len(mergedTop) != len(want) {
			t.Fatalf("query %d: merged %d hits, single-node %d", qi, len(mergedTop), len(want))
		}
		for i, rd := range mergedTop {
			if int64(want[i].Page.ID) != rd.Doc || want[i].Score != rd.Score {
				t.Fatalf("query %d rank %d: merged (doc %d, %v) vs single-node (doc %d, %v)",
					qi, i, rd.Doc, rd.Score, want[i].Page.ID, want[i].Score)
			}
			if got := byDoc[rd.Doc].Page; got == nil || int64(got.ID) != rd.Doc {
				t.Fatalf("query %d rank %d: merged doc %d not materializable from its partition", qi, i, rd.Doc)
			}
		}
	}
}

// statsSummary keeps failure messages readable (the maps are huge).
func statsSummary(st *CollectionStats) [4]int {
	return [4]int{len(st.CollFreq), st.TotalTokens, st.NumTerms, st.NumDocs}
}

// BenchmarkScatterMergeAllocs pins the coordinator's merge path: K-way
// top-K merge of per-node ranked lists into a reused buffer over pooled
// heap scratch. Gated at 0 allocs/op by scripts/alloc_gate.sh — renaming
// this benchmark breaks the gate; update the script in the same change.
func BenchmarkScatterMergeAllocs(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 0))
	lists := make([][]RankedDoc, 3)
	next := int64(0)
	for i := range lists {
		for j := 0; j < 8; j++ {
			lists[i] = append(lists[i], RankedDoc{Doc: next, Score: rng.Float64()})
			next++
		}
	}
	var dst []RankedDoc
	dst = MergeTopKAppend(dst, 8, lists) // warm the pool
	if len(dst) != 8 {
		b.Fatalf("merged %d hits, want 8", len(dst))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = MergeTopKAppend(dst[:0], 8, lists)
	}
}

// TestWithCollectionStatsNilRestores checks the override round-trip: an
// engine given its own index's stats scores identically, and clearing the
// override returns to index-local statistics.
func TestWithCollectionStatsNilRestores(t *testing.T) {
	pages, queries := diffCorpus(t, 5)
	idx := BuildIndex(pages)
	e := NewEngineOpts(idx, Options{})
	own := e.WithCollectionStats(StatsOf(idx))
	cleared := own.WithCollectionStats(nil)
	for _, q := range queries[:20] {
		want := e.SearchWithSeed(nil, q)
		if !reflect.DeepEqual(own.SearchWithSeed(nil, q), want) {
			t.Fatal("engine with its own stats as override diverges")
		}
		if !reflect.DeepEqual(cleared.SearchWithSeed(nil, q), want) {
			t.Fatal("cleared override diverges from index-local scoring")
		}
	}
}

// TestClusterGeometryClamp: one rule (ClampReplicas) turns the two flags
// every process of a cluster is started with into the effective geometry,
// wherever it is applied — the ring a coordinator builds from the raw
// values and the ring a node's spec builds must be the same ring, the
// 1-node cluster under the default -replicas 2 included (a node used to
// reject what the coordinator clamped). Holds is Owners, inverted.
func TestClusterGeometryClamp(t *testing.T) {
	for _, tc := range []struct{ nodes, replicas, want int }{
		{1, 2, 1}, {1, 1, 1}, {1, 0, 1}, {1, -3, 1},
		{2, 2, 2}, {2, 5, 2},
		{3, 0, 1}, {3, 1, 1}, {3, 2, 2}, {3, 3, 3}, {3, 4, 3},
		{9, 9, 9}, {9, 100, 9},
	} {
		if got := ClampReplicas(tc.replicas, tc.nodes); got != tc.want {
			t.Errorf("ClampReplicas(%d, %d nodes) = %d, want %d", tc.replicas, tc.nodes, got, tc.want)
		}
		coord := NewRing(tc.nodes, tc.replicas, 0)
		for id := 0; id < tc.nodes; id++ {
			ring, err := ClusterSpec{Nodes: tc.nodes, Replicas: tc.replicas, NodeID: id}.Ring()
			if err != nil {
				t.Fatalf("nodes %d replicas %d id %d: %v", tc.nodes, tc.replicas, id, err)
			}
			if ring.Nodes() != tc.nodes || ring.Replicas() != tc.want || coord.Replicas() != tc.want {
				t.Fatalf("nodes %d replicas %d: node ring %d×%d, coordinator ring %d×%d, want replicas %d",
					tc.nodes, tc.replicas, ring.Nodes(), ring.Replicas(), coord.Nodes(), coord.Replicas(), tc.want)
			}
			held := 0
			for doc := corpus.PageID(0); doc < 500; doc++ {
				owner := false
				for _, o := range coord.AppendOwners(nil, coord.Partition(doc)) {
					owner = owner || o == id
				}
				if ring.Holds(id, doc) != owner {
					t.Fatalf("nodes %d replicas %d: Holds(%d, doc %d) = %v, Owners says %v", tc.nodes, tc.replicas, id, doc, !owner, owner)
				}
				if owner {
					held++
				}
			}
			if tc.want == tc.nodes && held != 500 {
				t.Fatalf("nodes %d replicas %d: fully replicated node %d holds %d of 500 docs", tc.nodes, tc.replicas, id, held)
			}
		}
	}
	for _, bad := range []ClusterSpec{{Nodes: 0}, {Nodes: -1}, {Nodes: 3, NodeID: 3}, {Nodes: 3, NodeID: -1}} {
		if _, err := bad.Ring(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}
