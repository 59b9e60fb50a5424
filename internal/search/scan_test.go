package search

import (
	"reflect"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/synth"
)

// TestBuildIndexOverUntokenizedPages holds the index to its pages, not to
// whether they were tokenized: BuildIndex over pages that never read their
// tokens (the pass tokenizes into scratch) equals BuildIndex over the same
// corpus after every page was read (the pass reads the pages' own
// arrays) — the same dictionary, postings, document lengths and
// collection statistics.
func TestBuildIndexOverUntokenizedPages(t *testing.T) {
	for _, d := range []corpus.Domain{synth.DomainResearchers, synth.DomainCars} {
		fresh, err := synth.Generate(synth.TestConfig(d))
		if err != nil {
			t.Fatal(err)
		}
		read, err := synth.Generate(synth.TestConfig(d))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range read.Corpus.Pages {
			p.Tokens()
		}
		a, b := BuildIndex(fresh.Corpus.Pages), BuildIndex(read.Corpus.Pages)
		if a.NumDocs() != b.NumDocs() || a.totalToks != b.totalToks || a.minDocLen != b.minDocLen {
			t.Fatalf("%s: %d docs, %d tokens, shortest %d vs %d, %d, %d",
				d, a.NumDocs(), a.totalToks, a.minDocLen, b.NumDocs(), b.totalToks, b.minDocLen)
		}
		if !reflect.DeepEqual(a.docLen, b.docLen) || !reflect.DeepEqual(a.terms, b.terms) || !reflect.DeepEqual(a.lists, b.lists) {
			t.Fatalf("%s: document lengths, dictionary or postings differ", d)
		}
	}
}
