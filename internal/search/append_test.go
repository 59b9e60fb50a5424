package search

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/textproc"
)

// appendTestEngine builds a small deterministic corpus with enough
// distinct queries to churn the cache and the pooled scoring scratch.
func appendTestEngine(t *testing.T, opts Options) (*Engine, [][]textproc.Token) {
	t.Helper()
	var pages []*corpus.Page
	terms := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for i := 0; i < 40; i++ {
		words := []textproc.Token{
			terms[i%len(terms)], terms[(i+3)%len(terms)], terms[(i+5)%len(terms)],
			fmt.Sprintf("page%d", i), terms[i%len(terms)], "research",
		}
		pages = append(pages, &corpus.Page{ID: corpus.PageID(i), Paras: []corpus.Paragraph{
			{Tokens: words, Text: textproc.JoinQuery(words)},
		}})
	}
	var qs [][]textproc.Token
	for _, a := range terms {
		qs = append(qs, []textproc.Token{a})
		for _, b := range terms {
			qs = append(qs, []textproc.Token{a, b})
		}
	}
	return NewEngineOpts(BuildIndex(pages), opts), qs
}

// TestSearchAppendMatchesSearch pins the append variant to SearchWithSeed
// result for result on seedless queries — cold, cached, and with a reused
// buffer — and verifies an existing dst prefix survives.
func TestSearchAppendMatchesSearch(t *testing.T) {
	for _, cache := range []int{0, -1} {
		e, qs := appendTestEngine(t, Options{CacheSize: cache})
		var dst []Result
		for round := 0; round < 3; round++ { // round > 0 hits the cache when enabled
			for _, q := range qs {
				want := e.SearchWithSeed(nil, q)
				dst = e.SearchWithSeedAppend(dst[:0], nil, q)
				if len(want) == 0 && len(dst) == 0 {
					continue
				}
				if !reflect.DeepEqual(dst, want) {
					t.Fatalf("cache=%d q=%v: append %v, search %v", cache, q, dst, want)
				}
			}
		}
		prefix := Result{Score: -12345}
		got := e.SearchWithSeedAppend([]Result{prefix}, nil, qs[0])
		if len(got) == 0 || got[0] != prefix {
			t.Fatalf("dst prefix not preserved: %v", got)
		}
	}
}

// TestSearchWithSeedAppendMatches does the same with a seed in front, the
// shape sessions search in per fetch.
func TestSearchWithSeedAppendMatches(t *testing.T) {
	e, qs := appendTestEngine(t, Options{})
	seed := qs[1]
	var dst []Result
	for _, q := range qs[:20] {
		want := e.SearchWithSeed(seed, q)
		dst = e.SearchWithSeedAppend(dst[:0], seed, q)
		if len(want) == 0 && len(dst) == 0 {
			continue
		}
		if !reflect.DeepEqual(dst, want) {
			t.Fatalf("q=%v: append %v, want %v", q, dst, want)
		}
	}
}

// TestConcurrentSearchAppendRace hammers SearchWithSeedAppend from many
// goroutines sharing one engine (and therefore the pooled scoring
// scratch, the pooled cache-key buffers, and the cache itself), each
// reusing its own destination buffer. Under -race (the CI default) this
// is the proof the pooled scratch never crosses goroutines; under any
// run it verifies results stay correct while contended.
func TestConcurrentSearchAppendRace(t *testing.T) {
	e, qs := appendTestEngine(t, Options{})
	want := make([][]Result, len(qs))
	for i, q := range qs {
		want[i] = e.SearchWithSeed(nil, q)
	}
	const goroutines = 8
	const rounds = 60
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []Result
			for r := 0; r < rounds; r++ {
				i := (g*13 + r*7) % len(qs)
				dst = e.SearchWithSeedAppend(dst[:0], nil, qs[i])
				if len(dst) == 0 && len(want[i]) == 0 {
					continue
				}
				if !reflect.DeepEqual(dst, want[i]) {
					select {
					case errc <- fmt.Errorf("goroutine %d round %d q=%v: got %v want %v", g, r, qs[i], dst, want[i]):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
