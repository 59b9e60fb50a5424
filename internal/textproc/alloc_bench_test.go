package textproc

import "testing"

// The alloc benchmarks below are the CI allocation gate's inputs
// (scripts/alloc_gate.sh pins a ceiling per benchmark name): they
// measure allocations per operation on the tokenization hot path, which
// runs once per harvested page and once per issued query. Renaming one
// breaks the gate — update the script in the same change.

// allocBenchLower is pure lowercase ASCII: the LUT fast path end to end,
// tokens sliced zero-copy from the input. Steady-state ceiling: 0.
const allocBenchLower = "he published many data mining papers and studies parallel computing systems at the university in 2016"

// allocBenchMixed adds capitalization (each capitalized word costs one
// ToLower string) and connector shapes (emails, dotted hosts, hyphens).
const allocBenchMixed = "Dr. Smith-Jones published Data Mining papers; mail s.jones@cs.example.edu or see www.cs.example.edu for Parallel Computing in 2016."

func allocBenchTokenizer() *Tokenizer {
	return &Tokenizer{Lexicon: NewLexicon([]string{"data mining", "parallel computing"})}
}

// BenchmarkTokenizeAllocs is the tokenization allocation trajectory:
//
//	append/lower    AppendTokens into a reused buffer, lowercase ASCII —
//	                the page-ingest steady state. Pinned at 0 allocs/op.
//	append/mixed    same, with case folds and connectors: allocations
//	                are exactly the per-token ToLower strings.
//	convenience     Tokenize (fresh result slice per call).
//	reference       the retained pre-LUT implementation, for the ratio.
func BenchmarkTokenizeAllocs(b *testing.B) {
	tok := allocBenchTokenizer()
	b.Run("append/lower", func(b *testing.B) {
		var dst []Token
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = tok.AppendTokens(dst[:0], allocBenchLower)
		}
		if len(dst) == 0 {
			b.Fatal("no tokens")
		}
	})
	b.Run("append/mixed", func(b *testing.B) {
		var dst []Token
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = tok.AppendTokens(dst[:0], allocBenchMixed)
		}
		if len(dst) == 0 {
			b.Fatal("no tokens")
		}
	})
	b.Run("convenience", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(tok.Tokenize(allocBenchMixed)) == 0 {
				b.Fatal("no tokens")
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			words := SplitWordsReference(allocBenchMixed)
			merged := tok.Lexicon.MergePhrases(words)
			if len(merged) == 0 {
				b.Fatal("no tokens")
			}
		}
	})
}

// BenchmarkNGramsAllocs measures candidate n-gram enumeration, the inner
// loop of domain-model learning and candidate-pool refresh. The append
// variant reuses the destination; remaining allocations are only the
// strings of multi-word grams actually emitted.
func BenchmarkNGramsAllocs(b *testing.B) {
	tok := allocBenchTokenizer()
	toks := tok.Tokenize(allocBenchMixed)
	cfg := DefaultNGramConfig()
	b.Run("append", func(b *testing.B) {
		var dst []string
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = AppendNGrams(dst[:0], toks, cfg)
		}
		if len(dst) == 0 {
			b.Fatal("no grams")
		}
	})
	b.Run("convenience", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(NGrams(toks, cfg)) == 0 {
				b.Fatal("no grams")
			}
		}
	})
}

// BenchmarkGramWindowsAllocs is the id path's enumeration — what a
// harvesting session's pool runs per new page — over the same tokens as
// term ids, the seed excluded, into a reused buffer: fixed-width keys, no
// joined string, the flag scratch pooled. Pinned at 0 allocs/op.
func BenchmarkGramWindowsAllocs(b *testing.B) {
	tok := allocBenchTokenizer()
	v := NewVocabulary(NewStopwords())
	ids := v.AppendIDs(nil, tok.Tokenize(allocBenchMixed))
	cfg := IDGramConfig{Exclude: v.AppendIDs(nil, []Token{"smith"})}
	var dst []GramWindow
	dst = AppendGramWindows(dst, ids, cfg)
	if len(dst) == 0 {
		b.Fatal("no windows")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendGramWindows(dst[:0], ids, cfg)
	}
}
