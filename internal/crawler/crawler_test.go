package crawler

import (
	"context"
	"reflect"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// chainCorpus builds a tiny hand-wired web:
//
//	s0 (rel) → {r1 (rel), n1 (irrel)}
//	r1 → r2 (rel), n1 → n2 (irrel), r2 → r3 (rel)
//
// A best-first crawler with budget 4 must fetch s0, r1, r2 (following the
// relevant branch first) before any n-page beyond the tie at the top.
func chainCorpus(t *testing.T) (map[corpus.PageID]*corpus.Page, []*corpus.Page, func(*corpus.Page) bool) {
	t.Helper()
	c := corpus.New("test")
	if err := c.AddEntity(&corpus.Entity{ID: 1, Name: "e", SeedQuery: "e"}); err != nil {
		t.Fatal(err)
	}
	rel := map[corpus.PageID]bool{0: true, 1: true, 2: true, 3: true}
	mk := func(id corpus.PageID, links ...corpus.PageID) *corpus.Page {
		p := &corpus.Page{ID: id, Entity: 1, Links: links,
			Paras: []corpus.Paragraph{{Text: "x", Tokens: []string{"x"}}}}
		if err := c.AddPage(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	s0 := mk(0, 1, 10) // relevant seed linking to r1 and n1
	mk(1, 2)           // r1 → r2
	mk(2, 3)           // r2 → r3
	mk(3)
	mk(10, 11) // n1 → n2
	mk(11)
	y := func(p *corpus.Page) bool { return rel[p.ID] }
	return PageIndex(c), []*corpus.Page{s0}, y
}

func TestCrawlFollowsRelevance(t *testing.T) {
	byID, seeds, y := chainCorpus(t)
	res := Crawl(byID, seeds, y, Config{Budget: 4})
	if res.Fetches != 4 {
		t.Fatalf("fetches = %d", res.Fetches)
	}
	var ids []corpus.PageID
	for _, p := range res.Pages {
		ids = append(ids, p.ID)
	}
	// s0 first; r1 and n1 tie (both discovered from the relevant seed),
	// FIFO breaks toward r1; r1 is relevant so r2 (priority 1) beats n2
	// (priority 0, from irrelevant n1).
	want := []corpus.PageID{0, 1, 10, 2}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("crawl order %v, want %v", ids, want)
	}
}

func TestCrawlBudget(t *testing.T) {
	byID, seeds, y := chainCorpus(t)
	for _, budget := range []int{0, 1, 3, 100} {
		res := Crawl(byID, seeds, y, Config{Budget: budget})
		if res.Fetches > budget {
			t.Errorf("budget %d: %d fetches", budget, res.Fetches)
		}
		if budget >= 6 && res.Fetches != 6 {
			t.Errorf("budget %d: fetched %d of 6 reachable pages", budget, res.Fetches)
		}
	}
}

func TestCrawlDeterminism(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	byID := PageIndex(g.Corpus)
	seeds := g.Corpus.PagesOf(g.Corpus.Entities[0].ID)[:2]
	aspect := synth.AspResearch
	y := func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) }

	a := Crawl(byID, seeds, y, Config{Budget: 30})
	b := Crawl(byID, seeds, y, Config{Budget: 30})
	if len(a.Pages) != len(b.Pages) {
		t.Fatal("nondeterministic crawl size")
	}
	for i := range a.Pages {
		if a.Pages[i].ID != b.Pages[i].ID {
			t.Fatalf("nondeterministic order at %d", i)
		}
	}
}

func TestCrawlMaxFrontier(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainCars))
	if err != nil {
		t.Fatal(err)
	}
	byID := PageIndex(g.Corpus)
	seeds := g.Corpus.PagesOf(g.Corpus.Entities[0].ID)[:2]
	y := func(*corpus.Page) bool { return true }
	res := Crawl(byID, seeds, y, Config{Budget: 10, MaxFrontier: 3})
	if res.FrontierLeft > 3 {
		t.Errorf("frontier grew to %d past the cap", res.FrontierLeft)
	}
}

// TestCrawlSink: the sink sees every fetched page, in fetch order — the
// contract the live-index feed (examples/livecrawl) depends on.
func TestCrawlSink(t *testing.T) {
	byID, seeds, y := chainCorpus(t)
	var sunk []corpus.PageID
	res := Crawl(byID, seeds, y, Config{Budget: 4, Sink: func(p *corpus.Page) {
		sunk = append(sunk, p.ID)
	}})
	var fetched []corpus.PageID
	for _, p := range res.Pages {
		fetched = append(fetched, p.ID)
	}
	if !reflect.DeepEqual(sunk, fetched) {
		t.Fatalf("sink saw %v, fetch order was %v", sunk, fetched)
	}
}

func TestCrawlDanglingLinks(t *testing.T) {
	c := corpus.New("test")
	if err := c.AddEntity(&corpus.Entity{ID: 1, Name: "e", SeedQuery: "e"}); err != nil {
		t.Fatal(err)
	}
	p := &corpus.Page{ID: 0, Entity: 1, Links: []corpus.PageID{404, 405},
		Paras: []corpus.Paragraph{{Text: "x", Tokens: []string{"x"}}}}
	if err := c.AddPage(p); err != nil {
		t.Fatal(err)
	}
	res := Crawl(PageIndex(c), []*corpus.Page{p}, func(*corpus.Page) bool { return true },
		Config{Budget: 10})
	if res.Fetches != 1 {
		t.Errorf("fetches = %d (dangling links must not count)", res.Fetches)
	}
}

// TestQueryHarvestBeatsCrawler materializes the paper's motivating claim on
// the synthetic web: at the same page budget, the query-driven harvester's
// aspect F-score beats the link-driven focused crawler's, because links
// encode entity locality but not aspects.
func TestQueryHarvestBeatsCrawler(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	engine := search.NewEngine(search.BuildIndex(g.Corpus.Pages))
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}
	aspect := synth.AspResearch
	y := func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) }
	cfg := core.DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	var domain []corpus.EntityID
	for i := 0; i < g.Corpus.NumEntities()/2; i++ {
		domain = append(domain, g.Corpus.Entities[i].ID)
	}
	dm, err := core.LearnDomain(cfg, aspect, g.Corpus, domain, y, rec)
	if err != nil {
		t.Fatal(err)
	}
	byID := PageIndex(g.Corpus)

	fscore := func(pages []*corpus.Page, entity corpus.EntityID) float64 {
		var relevant int
		for _, p := range g.Corpus.PagesOf(entity) {
			if y(p) {
				relevant++
			}
		}
		hit, got := 0, 0
		seen := map[corpus.PageID]struct{}{}
		for _, p := range pages {
			if _, dup := seen[p.ID]; dup {
				continue
			}
			seen[p.ID] = struct{}{}
			got++
			if p.Entity == entity && y(p) {
				hit++
			}
		}
		if got == 0 || relevant == 0 || hit == 0 {
			return 0
		}
		prec := float64(hit) / float64(got)
		rec := float64(hit) / float64(relevant)
		return 2 * prec * rec / (prec + rec)
	}

	var l2qSum, crawlSum float64
	n := 0
	targets := g.Corpus.Entities[g.Corpus.NumEntities()-4:]
	for _, e := range targets {
		sess := core.NewSession(cfg, engine, e, aspect, y, dm, rec, 1)
		if _, err := sess.RunCtx(context.Background(), core.NewL2QBAL(), 3); err != nil {
			t.Fatal(err)
		}
		budget := len(sess.Pages())

		seeds := engine.SearchWithSeed(e.SeedTokens(), nil)
		seedPages := make([]*corpus.Page, 0, len(seeds))
		for _, r := range seeds {
			seedPages = append(seedPages, r.Page)
		}
		crawl := Crawl(byID, seedPages, y, Config{Budget: budget})

		l2qSum += fscore(sess.Pages(), e.ID)
		crawlSum += fscore(crawl.Pages, e.ID)
		n++
	}
	l2qF, crawlF := l2qSum/float64(n), crawlSum/float64(n)
	t.Logf("mean F over %d entities: L2QBAL %.3f, focused crawler %.3f", n, l2qF, crawlF)
	if l2qF <= crawlF {
		t.Errorf("query harvesting (%.3f) did not beat link crawling (%.3f)", l2qF, crawlF)
	}
}
