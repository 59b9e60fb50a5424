package classify

import (
	"testing"

	"l2q/internal/synth"
)

// BenchmarkRelevantAllocs pins Y's allocations on the researchers test
// collection, every page tokenized: hit is a cached Set.Relevant, miss the
// Naive Bayes page rule a Set runs on a page it has not cached
// (PageRelevant). scripts/alloc_gate.sh holds both at 0.
func BenchmarkRelevantAllocs(b *testing.B) {
	g := generated(b, synth.DomainResearchers)
	set := TrainSet(g.Aspects, g.Corpus.Pages)
	a, pages := g.Aspects[0], g.Corpus.Pages
	for _, p := range pages {
		set.Relevant(a, p) // tokenizes the page and caches its Y
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			set.Relevant(a, pages[i%len(pages)])
			i++
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		c := set.ByAspect[a]
		i := 0
		for b.Loop() {
			c.PageRelevant(pages[i%len(pages)])
			i++
		}
	})
}
