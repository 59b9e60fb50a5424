package core

import (
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// BenchmarkCandidateAllocs is the candidate-pool allocation trajectory
// the CI gate (scripts/alloc_gate.sh) pins. It measures CandidatesAppend
// on an incremental pool at step ≥5 with the last fire's delta already
// absorbed — the repeated-refresh steady state, where the pool only
// re-emits its two cached segments:
//
//	steady/append    append into a reused buffer. Pinned at 0 allocs/op.
//	steady           Candidates (fresh result slice per call).
//
// Renaming a benchmark breaks the gate — update the script in the same
// change.
func BenchmarkCandidateAllocs(b *testing.B) {
	env := benchEnvFor(b, benchDomains[0].domain, benchDomains[0].aspect)
	s := env.session()
	mustBoot(b, s)
	for _, q := range env.prefix {
		if len(s.Candidates(true)) == 0 {
			b.Fatal("pool ran dry during replay")
		}
		mustFire(b, s, q)
	}
	if len(s.Candidates(true)) == 0 { // absorb the final fire's delta
		b.Fatal("empty pool")
	}
	b.Run("steady/append", func(b *testing.B) {
		var dst []Query
		dst = s.CandidatesAppend(dst, true)
		if len(dst) == 0 {
			b.Fatal("empty pool")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = s.CandidatesAppend(dst[:0], true)
		}
	})
	b.Run("steady", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(s.Candidates(true)) == 0 {
				b.Fatal("empty pool")
			}
		}
	})
}

// BenchmarkSelectAllocs is the selection allocation trajectory the CI gate
// pins: one L2QBAL Select — what harvest_remote runs per step — on a
// session warmed through the 5-query prefix, with the last fire's delta
// already absorbed, so the pool and the session graph have nothing to
// ingest and what remains is the collective pass and the one-pass arg-max.
// Its allocations are the returned Inference and its three Coll* vectors —
// no score slice, no per-candidate maps, no per-step tables.
func BenchmarkSelectAllocs(b *testing.B) {
	env := benchEnvFor(b, benchDomains[0].domain, benchDomains[0].aspect)
	s := env.session()
	sel := NewL2QBAL()
	mustBoot(b, s)
	for _, q := range env.prefix {
		if _, ok := sel.Select(s); !ok {
			b.Fatal("pool ran dry during replay")
		}
		mustFire(b, s, q)
	}
	if _, ok := sel.Select(s); !ok { // absorb the final fire's delta
		b.Fatal("empty pool")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sel.Select(s); !ok {
			b.Fatal("empty pool")
		}
	}
}

// BenchmarkHarvestJobAllocs is the whole-job allocation trajectory the CI
// gate pins: what harvest_remote runs per operation minus the wire — a
// fresh session of the benchEnv's one System over the shared learned
// model, L2QBAL at budget 5 on the in-process engine — measured from the
// second job on, so the System's facts table and the engine's query cache
// are warm, as they are once a job list has wrapped. What is left is the
// session's own state: its page and candidate pools, the candidate table,
// the page bitsets, one Inference per step. The pages' term ids are warm
// too (the corpus pages are the same every job); in harvest_remote, where
// every job parses its pages anew, each page adds its two.
func BenchmarkHarvestJobAllocs(b *testing.B) {
	env := benchEnvFor(b, benchDomains[0].domain, benchDomains[0].aspect)
	sel := NewL2QBAL()
	job := func() {
		if fired := mustRun(b, env.session(), sel, 5); len(fired) != 5 {
			b.Fatalf("fired %d of 5 queries", len(fired))
		}
	}
	job()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
}

// BenchmarkDomainCountAllocs is the domain phase's counting pass the CI
// gate pins: a fresh DomainSample over the first half of a TestConfig
// researcher collection, counted (Queries) and nothing else. The pages
// hold no tokens, as a server's do after boot.
func BenchmarkDomainCountAllocs(b *testing.B) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}
	var ids []corpus.EntityID
	for _, e := range g.Corpus.Entities[:g.Corpus.NumEntities()/2] {
		ids = append(ids, e.ID)
	}
	count := func() {
		s, err := NewDomainSample(cfg, g.Corpus, ids, nil, rec)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Queries()) == 0 {
			b.Fatal("no domain queries")
		}
	}
	count()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count()
	}
}
