package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitWords(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []Token
	}{
		{"simple", "Hello World", []Token{"hello", "world"}},
		{"punct", "parallel, hpc; systems!", []Token{"parallel", "hpc", "systems"}},
		{"email kept intact", "mail snir@illinois.edu now", []Token{"mail", "snir@illinois.edu", "now"}},
		{"host kept intact", "visit cs.illinois.edu today", []Token{"visit", "cs.illinois.edu", "today"}},
		{"hyphen kept", "state-of-the-art design", []Token{"state-of-the-art", "design"}},
		{"trailing dot split", "the end.", []Token{"the", "end"}},
		{"numbers", "BMW 328i from 2009", []Token{"bmw", "328i", "from", "2009"}},
		{"empty", "", nil},
		{"only punct", "...!!!", nil},
		{"unicode", "Café Zürich", []Token{"café", "zürich"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := SplitWords(tc.in)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("SplitWords(%q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

// TestTokenizerStopwordsAndNumbers: a tokenizer drops no token —
// stopwords, numbers and single letters stay, so every run of its tokens
// re-tokenizes to itself (RoundTrips); stopwords filter candidate n-grams
// instead (NGramConfig.Stopwords).
func TestTokenizerStopwordsAndNumbers(t *testing.T) {
	tok := &Tokenizer{Lexicon: NewLexicon([]string{"data mining"})}
	got := tok.Tokenize("He won a data mining award in 2009 and the next")
	want := []Token{"he", "won", "a", "data mining", "award", "in", "2009", "and", "the", "next"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestLexiconMergePhrases(t *testing.T) {
	lex := NewLexicon([]string{"data mining", "high performance computing", "single"})
	tests := []struct {
		in   []Token
		want []Token
	}{
		{
			[]Token{"his", "data", "mining", "papers"},
			[]Token{"his", "data mining", "papers"},
		},
		{
			[]Token{"high", "performance", "computing", "systems"},
			[]Token{"high performance computing", "systems"},
		},
		{
			[]Token{"data", "mining"},
			[]Token{"data mining"},
		},
		{
			[]Token{"data", "science"},
			[]Token{"data", "science"},
		},
		{
			[]Token{"single"},
			[]Token{"single"}, // 1-word entries are ignored
		},
	}
	for _, tc := range tests {
		got := lex.MergePhrases(tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("MergePhrases(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestLexiconLongestMatchWins(t *testing.T) {
	lex := NewLexicon([]string{"data mining", "data mining systems"})
	got := lex.MergePhrases([]Token{"on", "data", "mining", "systems", "today"})
	want := []Token{"on", "data mining systems", "today"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergePhrases = %v, want %v", got, want)
	}
}

// TestLexiconNormalizesWhitespace: a phrase given with a tab or doubled
// spaces is the single-spaced phrase merging produces, and counts its
// words the same way.
func TestLexiconNormalizesWhitespace(t *testing.T) {
	lex := NewLexicon([]string{"Data \t Mining", "parallel  computing"})
	if lex.MaxLen() != 2 {
		t.Errorf("MaxLen() = %d, want 2", lex.MaxLen())
	}
	got := lex.MergePhrases(SplitWords("data mining and parallel computing"))
	want := []Token{"data mining", "and", "parallel computing"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergePhrases = %q, want %q", got, want)
	}
}

func TestNGramsBasic(t *testing.T) {
	cfg := NGramConfig{MaxLen: 2}
	got := NGrams([]Token{"x", "y", "z"}, cfg)
	want := []string{"x", "y", "z", "x y", "y z"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NGrams = %v, want %v", got, want)
	}
}

func TestNGramsStopwordBoundaries(t *testing.T) {
	cfg := NGramConfig{MaxLen: 3, Stopwords: NewStopwords()}
	got := NGrams([]Token{"university", "of", "illinois"}, cfg)
	// "of" alone, "university of", "of illinois" are rejected; the interior
	// stopword in "university of illinois" is allowed.
	want := []string{"university", "illinois", "university of illinois"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NGrams = %v, want %v", got, want)
	}
}

func TestNGramsExclude(t *testing.T) {
	cfg := NGramConfig{
		MaxLen:  2,
		Exclude: map[Token]struct{}{"snir": {}},
	}
	got := NGrams([]Token{"marc", "snir", "hpc"}, cfg)
	want := []string{"marc", "hpc"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NGrams = %v, want %v", got, want)
	}
}

func TestNGramsDedup(t *testing.T) {
	cfg := NGramConfig{MaxLen: 1}
	got := NGrams([]Token{"hpc", "hpc", "hpc"}, cfg)
	if !reflect.DeepEqual(got, []string{"hpc"}) {
		t.Errorf("NGrams dedup = %v", got)
	}
}

func TestJoinSplitQueryRoundTrip(t *testing.T) {
	f := func(parts []string) bool {
		// Build tokens without spaces to make round-trip well-defined.
		toks := make([]Token, 0, len(parts))
		for _, p := range parts {
			p = strings.Map(func(r rune) rune {
				if r == ' ' {
					return '_'
				}
				return r
			}, p)
			if p == "" {
				p = "x"
			}
			toks = append(toks, p)
		}
		if len(toks) == 0 {
			return SplitQuery(JoinQuery(toks)) == nil
		}
		back := SplitQuery(JoinQuery(toks))
		return reflect.DeepEqual(back, toks)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStopwordsNilSetIsEmpty: a nil list (NGramConfig's "no filtering")
// contains nothing.
func TestStopwordsNilSetIsEmpty(t *testing.T) {
	var nilSW *Stopwords
	if nilSW.Contains("the") {
		t.Error("nil stopwords must contain nothing")
	}
}
