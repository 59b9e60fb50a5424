package corpus_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/html"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/synth"
	"l2q/internal/textproc"
	"l2q/internal/webapi"
)

// requireOneTokenArray fails unless the page, once read, holds its tokens
// once: every paragraph's ParaTokens is the next range of the array Tokens
// returns (same memory, not an equal copy), capacity-capped so an append
// to one paragraph reallocates instead of overwriting its neighbour, and
// Tokens itself allocates nothing.
func requireOneTokenArray(t *testing.T, from string, p *corpus.Page) {
	t.Helper()
	all := p.Tokens()
	if len(all) == 0 || len(p.Paras) < 2 {
		t.Fatalf("%s: page %d has %d tokens in %d paragraphs; the check needs a real page", from, p.ID, len(all), len(p.Paras))
	}
	off := 0
	for i := range p.Paras {
		pt := p.ParaTokens(i)
		if len(pt) == 0 {
			continue
		}
		if off+len(pt) > len(all) || &all[off] != &pt[0] {
			t.Fatalf("%s: page %d paragraph %d does not alias Tokens()[%d:]", from, p.ID, i, off)
		}
		if cap(pt) != len(pt) {
			t.Fatalf("%s: page %d paragraph %d has cap %d over len %d: an append would write into paragraph %d", from, p.ID, i, cap(pt), len(pt), i+1)
		}
		off += len(pt)
	}
	if off != len(all) || cap(all) != len(all) {
		t.Fatalf("%s: page %d: paragraphs cover %d of %d tokens (cap %d)", from, p.ID, off, len(all), cap(all))
	}
	if n := testing.AllocsPerRun(100, func() { _ = p.Tokens() }); n != 0 {
		t.Fatalf("%s: Tokens() allocates %v times per call", from, n)
	}
}

// TestPageTokensAliasParagraphs holds every page constructor in the
// repository to the one-token-array layout (examples/customdomain's has the
// same test beside it), and the struct-literal fallback to what it always
// did — under -race, with readers of Paras and Tokens at once.
func TestPageTokensAliasParagraphs(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	c := g.Corpus
	for _, p := range c.Pages {
		requireOneTokenArray(t, "synth.Generate", p)
	}

	var file bytes.Buffer
	if err := store.Save(&file, c, nil); err != nil {
		t.Fatal(err)
	}
	fromStore, err := store.Load(&file, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range c.Pages {
		for from, p := range map[string]*corpus.Page{
			"store.Load":     fromStore.Corpus.Pages[i],
			"html.ParsePage": html.ParsePage(html.RenderPage(want), -1, g.Tokenizer),
		} {
			requireOneTokenArray(t, from, p)
			if len(p.Tokens()) != len(want.Tokens()) {
				t.Fatalf("%s: page %d has %d tokens, generated page %d", from, want.ID, len(p.Tokens()), len(want.Tokens()))
			}
		}
	}

	// The live server's ingest path: the page the server built from posted
	// text is the one its corpus now ends with.
	boot := corpus.New(c.Domain)
	live := search.NewLiveEngine(nil, search.Options{}, search.LiveOptions{})
	srv := httptest.NewServer(webapi.NewServer(boot, live, g.Tokenizer).Handler())
	defer srv.Close()
	cli, err := webapi.DialContext(context.Background(), srv.URL, g.Tokenizer, webapi.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := c.Pages[3]
	ip := webapi.IngestPage{ID: src.ID, Entity: src.Entity, EntityName: "e", SeedQuery: "e", Title: src.Title}
	for i := range src.Paras {
		ip.Paras = append(ip.Paras, webapi.IngestParagraph{Text: src.Paras[i].Text, Aspect: string(src.Paras[i].Aspect)})
	}
	if _, err := cli.Ingest(context.Background(), webapi.IngestRequest{Pages: []webapi.IngestPage{ip}}); err != nil {
		t.Fatal(err)
	}
	if boot.NumPages() != 1 {
		t.Fatalf("ingest left %d pages in the live corpus, want 1", boot.NumPages())
	}
	requireOneTokenArray(t, "localBackend.ingest", boot.Pages[0])

	// A literal-built page: no shared array (its paragraphs keep the slices
	// they were given), Tokens is their concatenation, built once.
	lit := &corpus.Page{ID: 1, Paras: []corpus.Paragraph{
		{Tokens: []textproc.Token{"alpha", "beta"}},
		{Tokens: []textproc.Token{"gamma"}},
	}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				all := lit.Tokens()
				if len(all) != 3 || all[0] != "alpha" || all[2] != lit.Paras[1].Tokens[0] {
					t.Errorf("literal page concatenates to %v", all)
					return
				}
			}
		}()
	}
	wg.Wait()
	if &lit.Tokens()[0] == &lit.Paras[0].Tokens[0] {
		t.Error("Tokens() re-pointed a literal page's paragraphs (readers of Paras take no lock)")
	}
}
