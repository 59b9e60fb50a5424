package search

import (
	"math"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

func page(id corpus.PageID, ent corpus.EntityID, words ...string) *corpus.Page {
	return &corpus.Page{ID: id, Entity: ent, Paras: []corpus.Paragraph{
		{Tokens: words, Text: textproc.JoinQuery(words)},
	}}
}

func smallIndex() *Index {
	return BuildIndex([]*corpus.Page{
		page(0, 0, "marc", "snir", "research", "parallel", "hpc", "systems"),
		page(1, 0, "marc", "snir", "papers", "parallel", "hpc", "research"),
		page(2, 0, "marc", "snir", "research", "complexity", "parallel", "algorithms"),
		page(3, 0, "marc", "snir", "computational", "complexity", "illinois"),
		page(4, 0, "marc", "snir", "siebel", "center", "illinois"),
		page(5, 0, "marc", "snir", "senior", "manager", "ibm", "illinois"),
		page(6, 1, "philip", "yu", "data", "mining", "research", "tkde"),
	})
}

func TestIndexStats(t *testing.T) {
	idx := smallIndex()
	if idx.NumDocs() != 7 {
		t.Fatalf("NumDocs = %d", idx.NumDocs())
	}
	idx.DumpPostings(func(term textproc.Token, posts []RawPosting) {
		if term == "parallel" && len(posts) != 3 {
			t.Fatalf("%d postings for parallel, want 3", len(posts))
		}
	})
	if idx.CollectionFreq("research") != 4 {
		t.Fatalf("CollectionFreq(research) = %d", idx.CollectionFreq("research"))
	}
	if idx.TotalTokens() != 40 {
		t.Fatalf("TotalTokens = %d", idx.TotalTokens())
	}
}

func TestSearchRanksContainingDocsFirst(t *testing.T) {
	e := NewEngine(smallIndex())
	res := e.SearchWithSeed(nil, []textproc.Token{"parallel", "hpc"})
	if len(res) == 0 {
		t.Fatal("no results")
	}
	// Pages 0 and 1 contain both terms; they must rank above page 2
	// (parallel only).
	top2 := map[corpus.PageID]bool{res[0].Page.ID: true, res[1].Page.ID: true}
	if !top2[0] || !top2[1] {
		t.Fatalf("want pages 0,1 on top, got %v", top2)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
}

func TestSearchTopKAndEmpty(t *testing.T) {
	e := NewEngine(smallIndex()).WithTopK(2)
	res := e.SearchWithSeed(nil, []textproc.Token{"research"})
	if len(res) != 2 {
		t.Fatalf("topk=2 returned %d", len(res))
	}
	if got := e.SearchWithSeed(nil, nil); got != nil {
		t.Fatalf("empty query returned %v", got)
	}
	if got := e.SearchWithSeed(nil, []textproc.Token{"zzz-not-in-corpus"}); got != nil {
		t.Fatalf("OOV-only query returned %v", got)
	}
}

func TestSearchWithSeedFocusesEntity(t *testing.T) {
	e := NewEngine(smallIndex())
	// "research" alone matches Yu's page too; with Snir's seed the top
	// results must all be Snir's pages.
	res := e.SearchWithSeed([]textproc.Token{"marc", "snir"}, []textproc.Token{"research"})
	if len(res) < 3 {
		t.Fatalf("too few results: %d", len(res))
	}
	for i, r := range res[:3] {
		if r.Page.Entity != 0 {
			t.Fatalf("result %d from wrong entity: page %d", i, r.Page.ID)
		}
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	e := NewEngine(smallIndex())
	a := e.SearchWithSeed(nil, []textproc.Token{"illinois"})
	b := e.SearchWithSeed(nil, []textproc.Token{"illinois"})
	if len(a) != len(b) {
		t.Fatal("result sizes differ")
	}
	for i := range a {
		if a[i].Page.ID != b[i].Page.ID {
			t.Fatal("nondeterministic ranking")
		}
	}
}

func TestQueryLikelihoodMatchesSearchOrdering(t *testing.T) {
	e := NewEngine(smallIndex())
	q := []textproc.Token{"parallel", "hpc"}
	res := e.SearchWithSeed(nil, q)
	for _, r := range res {
		ql := e.QueryLikelihood(r.Page, q)
		if math.Abs(ql-r.Score) > 1e-9 {
			t.Fatalf("QueryLikelihood %.9f != search score %.9f", ql, r.Score)
		}
	}
	if !math.IsInf(e.QueryLikelihood(res[0].Page, nil), -1) {
		t.Fatal("empty query should score -inf")
	}
}

func TestMuAffectsSmoothing(t *testing.T) {
	idx := smallIndex()
	sharp := NewEngine(idx).WithMu(1)
	smooth := NewEngine(idx).WithMu(100000)
	q := []textproc.Token{"illinois"}
	rs := sharp.SearchWithSeed(nil, q)
	rm := smooth.SearchWithSeed(nil, q)
	if len(rs) == 0 || len(rm) == 0 {
		t.Fatal("no results")
	}
	// With tiny μ, term-containing docs dominate by a larger margin.
	gapSharp := rs[0].Score - rs[len(rs)-1].Score
	gapSmooth := rm[0].Score - rm[len(rm)-1].Score
	if gapSharp <= gapSmooth {
		t.Fatalf("expected sharper separation with small μ: %f vs %f", gapSharp, gapSmooth)
	}
}

func TestSearchOnSyntheticCorpus(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	idx := BuildIndex(g.Corpus.Pages)
	e := NewEngine(idx)
	ent := g.Corpus.Entities[0]
	seed := g.Tokenizer.Tokenize(ent.SeedQuery)
	res := e.SearchWithSeed(nil, seed)
	if len(res) != DefaultTopK {
		t.Fatalf("seed search returned %d results", len(res))
	}
	for _, r := range res {
		if r.Page.Entity != ent.ID {
			t.Fatalf("seed query retrieved foreign page (entity %d)", r.Page.Entity)
		}
	}
}
