package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// parityCases are the shapes the ASCII LUT fast path and the retained
// rune-at-a-time reference must agree on: the web-ish connector cases the
// tokenizer exists for (emails, dotted hosts, hyphenated terms), the
// boundary placements that exercise the lookahead, and the non-ASCII
// inputs that divert to the reference path wholesale.
var parityCases = []string{
	"",
	"   ",
	"plain words only",
	"He published MANY Data Mining papers.",
	"mail snir@illinois.edu or m.snir@cs.illinois.edu today",
	"see www.cs.illinois.edu and sub.domain.example.co.uk now",
	"e-class state-of-the-art twenty-one-year-old",
	"mixed: a-b.c@d.e-f.g",
	".leading @connectors -never start",
	"trailing. connectors@ stay- out",
	"doubled..dots and--dashes and@@ats split",
	"a.b..c d-e--f g@h@@i",
	"x.",
	".x",
	"-",
	"...",
	"@.-@.-",
	"a",
	"2016 was the year of 10-k filings worth $3.5M",
	"tabs\tand\nnewlines\r\nsplit too",
	"punct!uation?marks;every,where(and)more[besides]",
	"Öztürk studied naïve Bayes at Universität Zürich",
	"数据挖掘 与 并行计算",
	"café résumé déjà-vu",
	"mixed ascii and Müller's ünïcode@host.de tokens",
	"ΔE = mc² for Ω(n log n)",
	"é́ combining marks", // é + combining acute
	"emoji 🙂 between 🚀 words",
	"\xff\xfe invalid utf8 bytes",
}

func TestSplitWordsParity(t *testing.T) {
	for _, text := range parityCases {
		fast := SplitWords(text)
		ref := SplitWordsReference(text)
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("SplitWords(%q):\n  fast %q\n  ref  %q", text, fast, ref)
		}
	}
}

// TestSplitWordsParityQuick drives the differential property over random
// unicode strings (testing/quick generates arbitrary rune sequences, so
// this covers the ASCII/non-ASCII dispatch boundary from both sides).
func TestSplitWordsParityQuick(t *testing.T) {
	f := func(text string) bool {
		return reflect.DeepEqual(SplitWords(text), SplitWordsReference(text))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzSplitWordsParity is the fuzz form of the differential test. CI runs
// the seed corpus; `go test -fuzz=FuzzSplitWordsParity ./internal/textproc/`
// explores further.
func FuzzSplitWordsParity(f *testing.F) {
	for _, text := range parityCases {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		fast := SplitWords(text)
		ref := SplitWordsReference(text)
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("SplitWords(%q):\n  fast %q\n  ref  %q", text, fast, ref)
		}
	})
}

// TestTokenizeParity holds the full configured pipeline (LUT split +
// interned phrase merge) to the reference pipeline's output.
func TestTokenizeParity(t *testing.T) {
	tok := &Tokenizer{Lexicon: NewLexicon([]string{"data mining", "parallel computing", "naïve bayes"})}
	for _, text := range append(parityCases,
		"He studies Data Mining and Parallel Computing",
		"Öztürk applies Naïve Bayes to data mining",
	) {
		got := tok.Tokenize(text)
		want := tokenizeReference(tok, text)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q):\n  got  %q\n  want %q", text, got, want)
		}
	}
}

// tokenizeReference reconstructs Tokenize from the reference split and
// the reference phrase merge — the pre-refactor pipeline.
func tokenizeReference(t *Tokenizer, text string) []Token {
	toks := SplitWordsReference(text)
	if t.Lexicon != nil {
		toks = mergePhrasesReference(t.Lexicon, toks)
	}
	return toks
}

// TestAppendTokensReuse verifies the buffer-reuse contract: appending
// into a recycled dst yields the same tokens as a fresh call, and an
// existing prefix is preserved.
func TestAppendTokensReuse(t *testing.T) {
	tok := &Tokenizer{Lexicon: NewLexicon([]string{"data mining"})}
	dst := tok.AppendTokens(nil, "noise to size the buffer with data mining terms")
	for _, text := range parityCases {
		want := tok.Tokenize(text)
		dst = tok.AppendTokens(dst[:0], text)
		if !reflect.DeepEqual(append([]Token{}, dst...), append([]Token{}, want...)) {
			t.Fatalf("reuse mismatch on %q: got %q want %q", text, dst, want)
		}
	}
	prefix := []Token{"kept"}
	got := tok.AppendTokens(prefix, "data mining works")
	if len(got) == 0 || got[0] != "kept" {
		t.Fatalf("prefix not preserved: %q", got)
	}
}

// TestAppendSplitQueryParity pins the indexed query split to
// strings.Split semantics, empty fields included.
func TestAppendSplitQueryParity(t *testing.T) {
	cases := []string{
		"one", "two words", "a b c d", "", " ", "  ", "a ", " a", "a  b", "trailing space ",
	}
	for _, q := range cases {
		got := AppendSplitQuery(nil, q)
		want := strings.Split(q, " ")
		if !reflect.DeepEqual([]string(got), want) {
			t.Errorf("AppendSplitQuery(%q) = %q, want %q", q, got, want)
		}
	}
	f := func(q string) bool {
		return reflect.DeepEqual([]string(AppendSplitQuery(nil, q)), strings.Split(q, " "))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
