package webapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"l2q/internal/core"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

var errNoHits = errors.New("seed search returned no hits")

// throttleDataPaths interposes a bandwidth-modeled link in front of the
// data-plane endpoints only: searches and page downloads pay for their
// bytes, while the control plane (dial, stat exchange, entity listing) is
// free — each benchmark iteration re-dials, and charging the one-time
// registration traffic would drown the steady-state signal the benchmark
// is after.
func throttleDataPaths(inj *FaultInjector, next http.Handler) http.Handler {
	inj.Next = next
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Path
		if strings.HasPrefix(p, "/page/") || p == "/api/v1/search" || p == "/api/v1/cluster/search" {
			inj.ServeHTTP(w, r)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// BenchmarkScatterGather measures distributed retrieval throughput: a
// batch of seeded searches (search + download of every ranked hit)
// against a single node vs a 3-node scatter-gather cluster, where every
// node sits behind its own bandwidth-modeled uplink. SharedLink makes
// each uplink a genuinely serial resource — concurrent transfers queue
// instead of each enjoying the full bandwidth — so the single node's
// prefetch parallelism buys nothing, while the cluster's N nodes are N
// independent links. That is the regime the coordinator is for: the
// paper's per-page transfer cost is the bottleneck, and doc-partitioning
// spreads it.
//
// The acceptance bar is ≥2x batch throughput at 3 nodes vs 1 on this
// link; CI records both arms (ns/op and qps) in BENCH_scatter.json.
func BenchmarkScatterGather(b *testing.B) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		b.Fatal(err)
	}
	n := g.Corpus.NumEntities()
	seeds := make([][]textproc.Token, 16)
	for i := range seeds {
		seeds[i] = g.Corpus.Entities[n-1-i].SeedTokens()
	}

	// 64 KiB/s per uplink: slow enough that transfer time dominates
	// handler CPU (the same regime as BenchmarkRemoteHarvestWire).
	const linkBytesPerSec = 64 << 10

	// The batch is concurrent — throughput under simultaneous callers is
	// what a frontend asks of the retrieval tier, and it is what the
	// cluster's independent uplinks buy: the single node's link serializes
	// the batch no matter how many workers the client runs.
	runBatch := func(b *testing.B, ret core.Retriever) {
		errs := make(chan error, len(seeds))
		for _, seed := range seeds {
			go func(seed []textproc.Token) {
				res, err := ret.Retrieve(context.Background(), nil, seed, nil)
				if err == nil && len(res) == 0 {
					err = errNoHits
				}
				errs <- err
			}(seed)
		}
		for range seeds {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("nodes=1", func(b *testing.B) {
		engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))
		inj := &FaultInjector{Bandwidth: linkBytesPerSec, SharedLink: true}
		srv := httptest.NewServer(throttleDataPaths(inj, NewServer(g.Corpus, engine).Handler()))
		defer srv.Close()

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh client per iteration so the page cache cannot absorb
			// the transfers (the bench_wire idiom).
			c, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{})
			if err != nil {
				b.Fatal(err)
			}
			runBatch(b, c)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*len(seeds))/b.Elapsed().Seconds(), "qps")
	})

	b.Run("nodes=3", func(b *testing.B) {
		urls := startClusterNodes(b, g, 3, 2, func(i int, h http.Handler) http.Handler {
			return throttleDataPaths(&FaultInjector{Bandwidth: linkBytesPerSec, SharedLink: true}, h)
		})

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			co, err := DialCoordinator(context.Background(), CoordinatorConfig{
				Nodes:    urls,
				Replicas: 2,
			}, g.Tokenizer)
			if err != nil {
				b.Fatal(err)
			}
			runBatch(b, co)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*len(seeds))/b.Elapsed().Seconds(), "qps")
	})
}
