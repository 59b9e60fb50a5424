package corpus

import (
	"slices"
	"sync"
	"testing"

	"l2q/internal/textproc"
)

// TestPageConcurrentTokenCaches exercises the lazily built token caches
// from many goroutines; run with -race.
func TestPageConcurrentTokenCaches(t *testing.T) {
	p := &Page{ID: 1, Entity: 0}
	for i := 0; i < 20; i++ {
		p.Paras = append(p.Paras, Paragraph{
			Tokens: []string{"alpha", "beta", "gamma", "delta"},
		})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if len(p.Tokens()) != 80 {
					t.Error("token cache corrupted")
					return
				}
				if !p.HasToken("gamma") || p.HasToken("zeta") {
					t.Error("token-set cache corrupted")
					return
				}
				if !p.ContainsQuery([]string{"alpha", "delta"}) {
					t.Error("containment corrupted")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPageConcurrentFirstReads races the first read of a page built from
// text: goroutines ask at once for its Tokens, a paragraph's ParaTokens,
// its TermIDs and HasToken, each the trigger of the page's one
// tokenization. Every reader must see the whole stream and every range in
// it (run with -race; make test repeats it, since a missed happens-before
// on a lazily set field shows only now and then).
func TestPageConcurrentFirstReads(t *testing.T) {
	tok := &textproc.Tokenizer{}
	sw := textproc.NewStopwords()
	v := textproc.NewVocabulary(sw)
	texts := []string{"Alpha beta gamma.", "", "delta epsilon alpha zeta", "beta"}
	var want []textproc.Token
	for _, text := range texts {
		want = append(want, tok.Tokenize(text)...)
	}
	for round := 0; round < 50; round++ {
		paras := make([]Paragraph, len(texts))
		for i, text := range texts {
			paras[i] = Paragraph{Text: text}
		}
		p := &Page{ID: PageID(round)}
		p.SetParas(paras, tok)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch w % 4 {
				case 0:
					if got := p.Tokens(); !slices.Equal(got, want) {
						t.Errorf("Tokens() = %q, want %q", got, want)
					}
				case 1:
					if got := p.ParaTokens(2); !slices.Equal(got, want[3:7]) {
						t.Errorf("ParaTokens(2) = %q, want %q", got, want[3:7])
					}
				case 2:
					if got := p.TermIDs(v); len(got) != len(want) {
						t.Errorf("TermIDs has %d ids for %d tokens", len(got), len(want))
					}
				case 3:
					if !p.HasToken("zeta") || p.HasToken("eta") {
						t.Error("HasToken answers against the token stream")
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if p.ParaTokens(1) != nil || !slices.Equal(p.ParaTokens(3), want[7:]) {
			t.Fatalf("round %d: paragraph ranges %q and %q", round, p.ParaTokens(1), p.ParaTokens(3))
		}
	}
}
