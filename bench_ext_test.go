// Benchmarks for the extension systems: the crawler comparison experiment,
// the persistent store, the HTML boundary, the CRF classifier family, the
// HTTP search API, and the interleaved pipeline.
// These complement bench_test.go's per-figure benchmarks.
package l2q_test

import (
	"bytes"
	"context"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/eval"
	"l2q/internal/html"
	"l2q/internal/pipeline"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/synth"
	"l2q/internal/webapi"
)

// BenchmarkExtCrawlerVsQueries regenerates the extension experiment of
// cmd/l2qexp -fig crawl: query-driven harvesting vs the link-following
// focused crawler at an equal download budget.
func BenchmarkExtCrawlerVsQueries(b *testing.B) {
	env := researcherEnv(b)
	b.ResetTimer()
	var last eval.CrawlResult
	for i := 0; i < b.N; i++ {
		res, err := env.CompareCrawler(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.L2QF, "normF-L2QBAL")
	b.ReportMetric(last.CrawlerF, "normF-crawler")
}

// BenchmarkStoreSave measures serialization throughput of the binary
// corpus+index store.
func BenchmarkStoreSave(b *testing.B) {
	env := researcherEnv(b)
	var buf bytes.Buffer
	if err := store.Save(&buf, env.G.Corpus, env.Engine.Index()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := store.Save(&buf, env.G.Corpus, env.Engine.Index()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreLoad measures deserialization + index restore throughput.
func BenchmarkStoreLoad(b *testing.B) {
	env := researcherEnv(b)
	var buf bytes.Buffer
	if err := store.Save(&buf, env.G.Corpus, env.Engine.Index()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Load(bytes.NewReader(data), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTMLRenderPage measures page → HTML rendering.
func BenchmarkHTMLRenderPage(b *testing.B) {
	env := researcherEnv(b)
	p := env.G.Corpus.Pages[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		html.RenderPage(p)
	}
}

// BenchmarkHTMLParsePage measures HTML → page segmentation + re-tokenization
// (the per-download cost of the remote harvest path).
func BenchmarkHTMLParsePage(b *testing.B) {
	env := researcherEnv(b)
	doc := html.RenderPage(env.G.Corpus.Pages[0])
	tok := env.G.Tokenizer
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		html.ParsePage(doc, 0, tok)
	}
}

// BenchmarkCRFvsNBAccuracy trains both classifier families for one aspect
// on half the corpus and reports held-out paragraph accuracy side by side
// (the paper's Fig. 9 uses CRFs; Naive Bayes is the fast default).
func BenchmarkCRFvsNBAccuracy(b *testing.B) {
	env := researcherEnv(b)
	pages := env.G.Corpus.Pages
	half := len(pages) / 2
	train, test := pages[:half], pages[half:]
	var accNB, accCRF float64
	for i := 0; i < b.N; i++ {
		nb := classify.Train(synth.AspResearch, train)
		cr := classify.TrainCRF(synth.AspResearch, train)
		if nb == nil || cr == nil {
			b.Fatal("training failed")
		}
		accNB = nb.Accuracy(test)
		accCRF = cr.Accuracy(test)
	}
	b.ReportMetric(accNB, "acc-NB")
	b.ReportMetric(accCRF, "acc-CRF")
}

// BenchmarkRemoteSearch measures one search + page downloads over the HTTP
// boundary (compare with BenchmarkSearchQuery for the in-process cost).
func BenchmarkRemoteSearch(b *testing.B) {
	env := researcherEnv(b)
	live := search.NewLiveEngine(env.Engine.Index(), search.Options{}, search.LiveOptions{TopK: env.Engine.TopK()})
	srv := webapi.NewServer(env.G.Corpus, live, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	client, err := webapi.DialContext(context.Background(), addr, env.G.Tokenizer, webapi.ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	seed := env.G.Corpus.Entities[0].SeedTokens()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := client.Retrieve(context.Background(), nil, seed, nil); err != nil || len(res) == 0 {
			b.Fatalf("no results: %v", err)
		}
	}
}

// BenchmarkAblationBeta sweeps the precision weight β of the weighted
// strategy (the paper's §VI-C future work on principled P/R combination;
// β = 0.5 is L2QBAL's geometric mean).
func BenchmarkAblationBeta(b *testing.B) {
	env := researcherEnv(b)
	betas := []float64{0.25, 0.5, 0.75}
	out := make([]float64, len(betas))
	for i := 0; i < b.N; i++ {
		for bi, beta := range betas {
			dm, err := env.DomainModel(synth.AspResearch, -1)
			if err != nil {
				b.Fatal(err)
			}
			sel := core.NewL2QWeighted(beta)
			relSum, totSum := 0, 0
			for _, id := range env.TestIDs {
				e := env.G.Corpus.Entity(id)
				s := env.NewSession(e, synth.AspResearch, dm, uint64(id)+1)
				if _, err := s.RunCtx(context.Background(), sel, 3); err != nil {
					b.Fatal(err)
				}
				for _, p := range s.Pages() {
					totSum++
					if env.Cls.Relevant(synth.AspResearch, p) && p.Entity == e.ID {
						relSum++
					}
				}
			}
			out[bi] = float64(relSum) / float64(totSum)
		}
	}
	b.ReportMetric(out[0], "prec-beta0.25")
	b.ReportMetric(out[1], "prec-beta0.50")
	b.ReportMetric(out[2], "prec-beta0.75")
}

// BenchmarkPipelineHarvest measures the interleaved scheduler end to end
// on 8 entities × 2 queries (no simulated latency: pure scheduling +
// selection cost; the latency win is demonstrated in the pipeline tests).
func BenchmarkPipelineHarvest(b *testing.B) {
	env := researcherEnv(b)
	dm, err := env.DomainModel(synth.AspResearch, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs := make([]pipeline.Job, 0, len(env.TestIDs))
		for _, id := range env.TestIDs {
			e := env.G.Corpus.Entity(id)
			s := env.NewSession(e, synth.AspResearch, dm, uint64(id)+1)
			jobs = append(jobs, pipeline.Job{Session: s, Selector: core.NewL2QBAL(), NQueries: 2})
		}
		results := pipeline.Run(context.Background(), pipeline.Config{}, jobs)
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}
