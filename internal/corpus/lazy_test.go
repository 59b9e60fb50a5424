package corpus_test

import (
	"reflect"
	"testing"

	"l2q"
	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/synth"
	"l2q/internal/types"
	"l2q/internal/webapi"
)

// TestLazyTokensMatchTokenizer holds a page's first read to what the page
// would have held had it tokenized when built: on every page of a small
// corpus of both domains, a scan hands out each paragraph's
// tok.Tokenize(text) without the page keeping anything, then ParaTokens is
// the same, Tokens is their concatenation, and the layout is one array
// the paragraphs are ranges of.
func TestLazyTokensMatchTokenizer(t *testing.T) {
	for _, d := range []corpus.Domain{synth.DomainResearchers, synth.DomainCars} {
		g, err := synth.Generate(synth.TestConfig(d))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range g.Corpus.Pages {
			if p.HoldsTokens() {
				t.Fatalf("%s: generated page %d holds tokens before any read", d, p.ID)
			}
			var buf []string
			for i := range p.Paras {
				want := g.Tokenizer.Tokenize(p.Paras[i].Text)
				if got := p.ScanParaTokens(i, &buf); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: page %d paragraph %d scans as %q, want %q", d, p.ID, i, got, want)
				}
			}
			if p.HoldsTokens() {
				t.Fatalf("%s: scanning page %d made it keep its tokens", d, p.ID)
			}
			var all []string
			for i := range p.Paras {
				want := g.Tokenizer.Tokenize(p.Paras[i].Text)
				if got := p.ParaTokens(i); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: page %d paragraph %d reads %q, want %q", d, p.ID, i, got, want)
				}
				all = append(all, want...)
			}
			if got := p.Tokens(); !reflect.DeepEqual(got, all) {
				t.Fatalf("%s: page %d Tokens() = %q, want %q", d, p.ID, got, all)
			}
			requireOneTokenArray(t, string(d), p)
		}
	}
}

// TestBootLeavesPagesUntokenized pins where a server's memory went: the
// passes a process runs at boot over the whole corpus — a single server's
// index with the harvest classifiers counted in the same pass, a cluster
// node's partition indexes, the library System's engine and classifiers —
// read every page and keep no page's tokens.
func TestBootLeavesPagesUntokenized(t *testing.T) {
	untokenized := func(what string, pages []*corpus.Page) {
		t.Helper()
		for _, p := range pages {
			if p.HoldsTokens() {
				t.Fatalf("%s: page %d keeps its tokens", what, p.ID)
			}
		}
	}
	gen := func() *synth.Generated {
		g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	g := gen()
	c := g.Corpus
	counts := classify.NewLabelCounts()
	idx := search.BuildIndex(c.Pages, counts.Add)
	webapi.NewServer(c, search.NewLiveEngine(idx, search.Options{}, search.LiveOptions{}), nil)
	ln := store.NewDomainLearner(c, g.Tokenizer, types.Chain{g.KB, types.NewRegexRecognizer()}, nil, counts)
	if len(ln.Aspects) == 0 || idx.NumDocs() != c.NumPages() {
		t.Fatalf("boot trained %d aspects over an index of %d docs", len(ln.Aspects), idx.NumDocs())
	}
	untokenized("single server", c.Pages)

	g = gen()
	if _, err := webapi.NewNodeServer(g.Corpus, search.ClusterSpec{Nodes: 3, Replicas: 2, NodeID: 1}, 5); err != nil {
		t.Fatal(err)
	}
	untokenized("cluster node", g.Corpus.Pages)

	sys, err := l2q.NewSyntheticSystem(l2q.Researchers, l2q.SystemOptions{NumEntities: 24, PagesPerEntity: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	untokenized("l2q.NewSystem", sys.Corpus().Pages)
}

// TestDomainCountLeavesPagesUntokenized: the domain phase's counting pass
// reads every sample page once and keeps nothing of it (a page has no
// n-gram memo to fill), so a server's first job on a new aspect does not
// leave the sample's token arrays behind.
func TestDomainCountLeavesPagesUntokenized(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	var ids []corpus.EntityID
	for _, e := range g.Corpus.Entities[:12] {
		ids = append(ids, e.ID)
	}
	s, err := core.NewDomainSample(cfg, g.Corpus, ids, nil, types.Chain{g.KB, types.NewRegexRecognizer()})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Queries()) == 0 || len(s.Candidates()) == 0 {
		t.Fatalf("count kept %d queries, %d candidates", len(s.Queries()), len(s.Candidates()))
	}
	for _, id := range ids {
		for _, p := range g.Corpus.PagesOf(id) {
			if p.HoldsTokens() {
				t.Fatalf("page %d keeps its tokens after the count", p.ID)
			}
		}
	}
}
