package corpus

import (
	"reflect"
	"sync"
	"testing"

	"l2q/internal/textproc"
)

func ngramsPage() *Page {
	return &Page{ID: 1, Paras: []Paragraph{
		mkPara("RESEARCH", "the", "research", "on", "parallel", "and", "hpc", "systems"),
		mkPara("", "parallel", "and", "hpc", "at", "the", "center"),
	}}
}

func wantNGrams(p *Page, maxLen int, sw *textproc.Stopwords) []string {
	return textproc.NGrams(p.Tokens(), textproc.NGramConfig{MaxLen: maxLen, Stopwords: sw})
}

// TestPageNGramsSharesEnumeration: NGrams is textproc.NGrams over the
// page's tokens, and a repeat call under the same MaxLen and stopword list
// returns the same slice instead of enumerating again.
func TestPageNGramsSharesEnumeration(t *testing.T) {
	p := ngramsPage()
	sw := textproc.NewStopwords()
	a := p.NGrams(3, sw)
	if want := wantNGrams(p, 3, sw); !reflect.DeepEqual(a, want) {
		t.Fatalf("NGrams = %q, want %q", a, want)
	}
	if b := p.NGrams(3, sw); &a[0] != &b[0] {
		t.Fatal("a repeat call enumerated again instead of returning the memo")
	}
}

// TestPageNGramsRecomputesUnderAnotherConfig: asked under another stopword
// list or MaxLen, NGrams answers for that config, not from the memo of the
// previous one — and the first config answers right again afterwards.
func TestPageNGramsRecomputesUnderAnotherConfig(t *testing.T) {
	p := ngramsPage()
	sw := textproc.NewStopwords()
	other := textproc.NewStopwordsFrom([]string{"parallel"})
	first := p.NGrams(3, sw)
	for _, c := range []struct {
		maxLen int
		sw     *textproc.Stopwords
	}{{3, other}, {3, nil}, {2, sw}, {3, sw}} {
		got, want := p.NGrams(c.maxLen, c.sw), wantNGrams(p, c.maxLen, c.sw)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("NGrams(%d, %p) = %q, want %q", c.maxLen, c.sw, got, want)
		}
	}
	if reflect.DeepEqual(first, p.NGrams(3, other)) {
		t.Fatal("the two stopword lists should enumerate differently on this page")
	}
}

// TestPageNGramsConcurrent: callers under two configs race on one page's
// memo (run with -race); each always gets its own config's enumeration.
func TestPageNGramsConcurrent(t *testing.T) {
	p := ngramsPage()
	sws := []*textproc.Stopwords{textproc.NewStopwords(), textproc.NewStopwordsFrom([]string{"hpc"})}
	wants := [][]string{wantNGrams(p, 3, sws[0]), wantNGrams(p, 3, sws[1])}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w + i/50) % 2
				if got := p.NGrams(3, sws[k]); !reflect.DeepEqual(got, wants[k]) {
					t.Errorf("config %d: NGrams = %q, want %q", k, got, wants[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}
