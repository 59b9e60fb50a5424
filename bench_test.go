// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI) plus micro-benchmarks for the substrates and ablations of the
// design choices called out in DESIGN.md.
//
// Quality benchmarks report normalized metrics via b.ReportMetric (units
// like normP/op); cmd/l2qexp prints the same numbers as tables at full
// scale. Run with:
//
//	go test -bench=. -benchmem
package l2q_test

import (
	"context"
	"sync"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/eval"
	"l2q/internal/graph"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/template"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// benchEnv lazily builds one small shared environment per domain so the
// figure benchmarks measure experiment time, not corpus generation.
var (
	envOnce sync.Once
	envR    *eval.Env
	envErr  error
)

func researcherEnv(b *testing.B) *eval.Env {
	b.Helper()
	envOnce.Do(func() {
		cfg := eval.TestConfig(synth.DomainResearchers)
		cfg.NumEntities = 60
		cfg.PagesPerEntity = 20
		cfg.DomainSample = 16
		cfg.NumTest = 8
		cfg.NumValidation = 4
		cfg.Seed = 1
		envR, envErr = eval.NewEnv(cfg)
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envR
}

// ---------------------------------------------------------------------------
// One benchmark per table / figure.
// ---------------------------------------------------------------------------

// BenchmarkFig09Classifiers regenerates the classifier table: per-aspect
// training and accuracy measurement.
func BenchmarkFig09Classifiers(b *testing.B) {
	env := researcherEnv(b)
	b.ResetTimer()
	minAcc := 1.0
	for i := 0; i < b.N; i++ {
		rows := env.Fig9()
		for _, r := range rows {
			if r.Accuracy < minAcc {
				minAcc = r.Accuracy
			}
		}
	}
	b.ReportMetric(minAcc, "minAccuracy")
}

// BenchmarkFig10Ablation regenerates the domain/context ablation and
// reports the normalized precision of the full approach.
func BenchmarkFig10Ablation(b *testing.B) {
	env := researcherEnv(b)
	b.ResetTimer()
	var last eval.Fig10Result
	for i := 0; i < b.N; i++ {
		res, err := env.Fig10(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Precision[eval.MethodL2QP], "normP-L2QP")
	b.ReportMetric(last.Recall[eval.MethodL2QR], "normR-L2QR")
	b.ReportMetric(last.Precision[eval.MethodRND], "normP-RND")
}

// BenchmarkFig11DomainSize regenerates the domain-size sweep.
func BenchmarkFig11DomainSize(b *testing.B) {
	env := researcherEnv(b)
	b.ResetTimer()
	var last eval.Fig11Result
	for i := 0; i < b.N; i++ {
		res, err := env.Fig11(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.PrecL2QP[0], "normP-0pct")
	b.ReportMetric(last.PrecL2QP[len(last.PrecL2QP)-1], "normP-100pct")
}

// BenchmarkFig12Baselines regenerates the precision/recall baseline
// comparison over 2–5 queries.
func BenchmarkFig12Baselines(b *testing.B) {
	env := researcherEnv(b)
	b.ResetTimer()
	var last eval.CompareResult
	for i := 0; i < b.N; i++ {
		res, err := env.Fig12(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, s := range last.Series {
		if s.Method == eval.MethodL2QR {
			b.ReportMetric(s.ByQueries[2].R, "normR-L2QR@3")
		}
		if s.Method == eval.MethodMQ {
			b.ReportMetric(s.ByQueries[2].R, "normR-MQ@3")
		}
	}
}

// BenchmarkFig13FScore regenerates the F-score comparison.
func BenchmarkFig13FScore(b *testing.B) {
	env := researcherEnv(b)
	b.ResetTimer()
	var last eval.CompareResult
	for i := 0; i < b.N; i++ {
		res, err := env.Fig13(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, s := range last.Series {
		if s.Method == eval.MethodL2QBAL {
			b.ReportMetric(s.ByQueries[1].F, "normF-L2QBAL@2")
		}
	}
}

// BenchmarkFig14SelectionTime measures the per-query selection cost of the
// full strategies (the paper's Fig. 14 "Selection" column).
func BenchmarkFig14SelectionTime(b *testing.B) {
	env := researcherEnv(b)
	b.ResetTimer()
	var last eval.Fig14Result
	for i := 0; i < b.N; i++ {
		res, err := env.Fig14(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.SelectionSec[eval.MethodL2QBAL], "selSec-L2QBAL")
	b.ReportMetric(last.FetchSecPerQuery, "fetchSec-simulated")
}

// ---------------------------------------------------------------------------
// Ablations of design choices (DESIGN.md §5–6).
// ---------------------------------------------------------------------------

// benchQuality runs one method on the benchmark env with a tweaked core
// config and returns the mean normalized F at 3 queries. The method must
// read the utility the ablated setting feeds, or both arms print the same
// number.
func benchQuality(b *testing.B, method eval.Method, mutate func(*core.Config)) float64 {
	cfg := eval.TestConfig(synth.DomainResearchers)
	cfg.NumEntities = 60
	cfg.PagesPerEntity = 20
	cfg.DomainSample = 16
	cfg.NumTest = 8
	cfg.NumValidation = 4
	cfg.Seed = 1
	mutate(&cfg.Core)
	env, err := eval.NewEnv(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := env.RunMethodAllAspects(context.Background(), method, env.TestIDs, 3, -1)
	if err != nil {
		b.Fatal(err)
	}
	return res.PerIteration[2].F
}

// BenchmarkAblationWalkRecallReg compares the counting-based template
// recall regularization (default) against the paper-literal forward-walk
// masses (DESIGN.md §5 item 6). It runs R+t: the regularization feeds the
// recall fixpoint, which the L2Q* strategies never read.
func BenchmarkAblationWalkRecallReg(b *testing.B) {
	var counting, walk float64
	for i := 0; i < b.N; i++ {
		counting = benchQuality(b, eval.MethodRT, func(c *core.Config) {})
		walk = benchQuality(b, eval.MethodRT, func(c *core.Config) { c.UseWalkRecallReg = true })
	}
	b.ReportMetric(counting, "normF-counting")
	b.ReportMetric(walk, "normF-walk")
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------------

func BenchmarkIndexBuild(b *testing.B) {
	env := researcherEnv(b)
	pages := env.G.Corpus.Pages
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search.BuildIndex(pages)
	}
}

func BenchmarkSearchQuery(b *testing.B) {
	env := researcherEnv(b)
	q := env.Cfg.Core.QueryTokens(core.Query(env.G.Corpus.Entities[0].SeedQuery))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Engine.SearchWithSeed(nil, q)
	}
}

func BenchmarkGraphSolve(b *testing.B) {
	// A mid-sized tripartite graph shaped like an entity graph.
	g := graph.New()
	var pages, queries, tmpls []graph.NodeID
	for i := 0; i < 30; i++ {
		pages = append(pages, g.AddNode(graph.KindPage))
	}
	for i := 0; i < 2000; i++ {
		queries = append(queries, g.AddNode(graph.KindQuery))
	}
	for i := 0; i < 400; i++ {
		tmpls = append(tmpls, g.AddNode(graph.KindTemplate))
	}
	for qi, q := range queries {
		g.AddEdgePQ(pages[qi%len(pages)], q, 1)
		if qi%3 == 0 {
			g.AddEdgePQ(pages[(qi+7)%len(pages)], q, 1)
		}
		g.AddEdgeQT(q, tmpls[qi%len(tmpls)], 1)
	}
	reg := make([]float64, g.NumNodes())
	for i := 0; i < 10; i++ {
		reg[pages[i]] = 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Solve(graph.Problem{G: g, Mode: graph.Recall, Reg: reg}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTemplateEnumerate(b *testing.B) {
	d := types.NewDictionary()
	d.AddAll("topic", "hpc", "data mining")
	d.AddAll("venue", "ijhpca", "tkde")
	q := []textproc.Token{"data mining", "papers", "tkde"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		template.Enumerate(q, d)
	}
}

// BenchmarkTokenize tracks the page-ingest tokenization cost through the
// public surface: "reference" is the retained pre-LUT implementation,
// "tokenize" the convenience path (fresh slice per call), "append" the
// buffer-reuse path harvesting uses per page (steady-state allocation
// floor; the fine-grained alloc gate lives in internal/textproc).
func BenchmarkTokenize(b *testing.B) {
	lex := textproc.NewLexicon([]string{"data mining", "parallel computing"})
	tok := &textproc.Tokenizer{Lexicon: lex}
	text := "He published many data mining papers and studies parallel computing systems at the university."
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lex.MergePhrases(textproc.SplitWordsReference(text))
		}
	})
	b.Run("tokenize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tok.Tokenize(text)
		}
	})
	b.Run("append", func(b *testing.B) {
		var dst []textproc.Token
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = tok.AppendTokens(dst[:0], text)
		}
	})
}

func BenchmarkClassifierTrain(b *testing.B) {
	env := researcherEnv(b)
	pages := env.G.Corpus.Pages
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classify.Train(synth.AspResearch, pages)
	}
}

func BenchmarkDomainPhase(b *testing.B) {
	env := researcherEnv(b)
	y := env.Cls.YFunc(synth.AspResearch)
	ids := env.DomainIDs[:env.Cfg.DomainSample]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LearnDomain(env.Cfg.Core, synth.AspResearch, env.G.Corpus, ids, y, env.Rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEntityPhaseSelect(b *testing.B) {
	env := researcherEnv(b)
	dm, err := env.DomainModel(synth.AspResearch, -1)
	if err != nil {
		b.Fatal(err)
	}
	entity := env.G.Corpus.Entity(env.TestIDs[0])
	sel := core.NewL2QBAL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := env.NewSession(entity, synth.AspResearch, dm, uint64(i))
		if _, ok, err := s.StepCtx(context.Background(), sel); err != nil || !ok {
			b.Fatal("no candidate", err)
		}
	}
}
