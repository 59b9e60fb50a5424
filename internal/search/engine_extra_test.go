package search

import (
	"math"
	"testing"

	"l2q/internal/textproc"
)

func TestEngineMuAutoScaling(t *testing.T) {
	idx := smallIndex()
	e := NewEngine(idx)
	avg := float64(idx.TotalTokens()) / float64(idx.NumDocs())
	want := 2 * avg
	if want < MinMu {
		want = MinMu
	}
	if math.Abs(e.Mu()-want) > 1e-9 {
		t.Fatalf("auto μ = %v, want %v", e.Mu(), want)
	}
}

func TestEngineWithersDoNotMutate(t *testing.T) {
	idx := smallIndex()
	e := NewEngine(idx)
	e2 := e.WithMu(7).WithTopK(2)
	if e.Mu() == 7 || e.TopK() == 2 {
		t.Fatal("withers mutated the receiver")
	}
	if e2.Mu() != 7 || e2.TopK() != 2 {
		t.Fatal("withers did not apply")
	}
	if e2.Index() != idx {
		t.Fatal("index not shared")
	}
}

func TestSearchConcurrent(t *testing.T) {
	idx := smallIndex()
	e := NewEngine(idx)
	done := make(chan struct{})
	for w := 0; w < 6; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				e.SearchWithSeed(nil, []textproc.Token{"research", "parallel"})
			}
		}()
	}
	for w := 0; w < 6; w++ {
		<-done
	}
}

func TestIndexAccessors(t *testing.T) {
	idx := smallIndex()
	if idx.NumTerms() == 0 {
		t.Fatal("no terms")
	}
	if idx.Doc(0) == nil {
		t.Fatal("Doc accessor broken")
	}
}
