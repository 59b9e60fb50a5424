package textproc

import (
	"reflect"
	"testing"
)

// ngramsReference is n-gram enumeration as it stood before the per-token
// flags: every gram's admissibility is decided on its own, by probing the
// exclude set for each of its tokens and the stopword list for both ends.
func ngramsReference(tokens []Token, cfg NGramConfig) []string {
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 3
	}
	seen := map[string]bool{}
	var out []string
	for l := 1; l <= cfg.MaxLen; l++ {
		for i := 0; i+l <= len(tokens); i++ {
			gram := tokens[i : i+l]
			if !admissibleReference(gram, cfg) {
				continue
			}
			if q := JoinQuery(gram); !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	return out
}

// countNGramsReference is CountNGrams over admissibleReference.
func countNGramsReference(tokens []Token, cfg NGramConfig) map[string]int {
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 3
	}
	counts := map[string]int{}
	for l := 1; l <= cfg.MaxLen; l++ {
		for i := 0; i+l <= len(tokens); i++ {
			if gram := tokens[i : i+l]; admissibleReference(gram, cfg) {
				counts[JoinQuery(gram)]++
			}
		}
	}
	return counts
}

func admissibleReference(gram []Token, cfg NGramConfig) bool {
	if len(gram) == 0 {
		return false
	}
	if cfg.Exclude != nil {
		for _, t := range gram {
			if _, bad := cfg.Exclude[t]; bad {
				return false
			}
		}
	}
	if sw := cfg.Stopwords; sw != nil {
		if sw.Contains(gram[0]) || sw.Contains(gram[len(gram)-1]) {
			return false
		}
	}
	return true
}

// mergePhrasesReference is phrase merging as it stood before the
// first-word index: at every position, every join from the lexicon's
// longest phrase length down to two is probed.
func mergePhrasesReference(l *Lexicon, tokens []Token) []Token {
	var out []Token
	for i := 0; i < len(tokens); {
		merged := false
		for n := min(l.maxLen, len(tokens)-i); n >= 2; n-- {
			if ph, ok := l.phrases[JoinQuery(tokens[i:i+n])]; ok {
				out = append(out, ph)
				i += n
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, tokens[i])
			i++
		}
	}
	return out
}

// refAlphabet is what a fuzz input's token bytes name: words that start
// the phrases of refPhrases (several phrases share a first word), words
// inside them, stopwords of the default list, the excluded "seed", an
// upper-case word, the empty token and a token that is itself a merged
// phrase (it holds a space).
var refAlphabet = []Token{
	"data", "mining", "systems", "science", "parallel", "computing",
	"high", "performance", "of", "the", "and", "seed", "Data", "", "data mining",
}

// refPhrases are the lexicon entries a FuzzLexiconMergeMatchesReference
// input picks from with its mask byte.
var refPhrases = []string{
	"data mining", "data mining systems", "data science", "parallel computing",
	"high performance computing", "mining systems", "the data", "Data \t Science of",
}

// sameTokens is slice equality that does not tell nil from empty.
func sameTokens(a, b []Token) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func refTokens(stream []byte) []Token {
	toks := make([]Token, len(stream))
	for i, b := range stream {
		toks[i] = refAlphabet[int(b)%len(refAlphabet)]
	}
	return toks
}

// FuzzNGramsMatchesReference holds AppendNGrams and CountNGrams, which
// decide admissibility from per-token flags, to the per-gram reference on
// random streams over refAlphabet. The config byte picks MaxLen 0–4 (0 is
// the default 3) and whether stopwords, an exclude set holding "seed" or
// an empty exclude set apply.
func FuzzNGramsMatchesReference(f *testing.F) {
	f.Add(byte(3|8|16), []byte{4, 0, 1, 8, 9, 5, 0, 1, 2, 11, 14, 13})
	f.Add(byte(4|8), []byte{6, 7, 5, 2, 9, 9, 0, 10, 0, 1})
	f.Add(byte(1|32), []byte{0, 0, 1, 1, 11})
	f.Fuzz(func(t *testing.T, cfgByte byte, stream []byte) {
		cfg := NGramConfig{MaxLen: int(cfgByte % 5)}
		if cfgByte&8 != 0 {
			cfg.Stopwords = NewStopwords()
		}
		switch {
		case cfgByte&16 != 0:
			cfg.Exclude = map[Token]struct{}{"seed": {}}
		case cfgByte&32 != 0:
			cfg.Exclude = map[Token]struct{}{}
		}
		toks := refTokens(stream)
		if got, want := NGrams(toks, cfg), ngramsReference(toks, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("NGrams(%q, %+v):\n  got  %q\n  want %q", toks, cfg, got, want)
		}
		if got, want := CountNGrams(toks, cfg, nil), countNGramsReference(toks, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("CountNGrams(%q, %+v):\n  got  %v\n  want %v", toks, cfg, got, want)
		}
	})
}

// FuzzLexiconMergeMatchesReference holds phrase merging through the
// first-word index to the reference that probes every length at every
// position, on random streams over refAlphabet and lexicons made of any
// subset of refPhrases — "data mining", "data mining systems" and "data
// science" share a first word, "mining systems" overlaps the longest of
// them, and one entry needs whitespace normalization.
func FuzzLexiconMergeMatchesReference(f *testing.F) {
	f.Add(byte(0xff), []byte{0, 1, 2, 3, 0, 1, 4, 5, 6, 7, 5, 9, 0, 3, 8, 14, 2})
	f.Add(byte(0x03), []byte{0, 1, 1, 2, 0, 0, 1, 2})
	f.Add(byte(0xc0), []byte{9, 0, 3, 8, 12, 3, 13, 0, 14, 1})
	f.Fuzz(func(t *testing.T, mask byte, stream []byte) {
		var phrases []string
		for i, p := range refPhrases {
			if mask&(1<<i) != 0 {
				phrases = append(phrases, p)
			}
		}
		lex := NewLexicon(phrases)
		toks := refTokens(stream)
		got := lex.MergePhrases(toks)
		if want := mergePhrasesReference(lex, toks); !sameTokens(got, want) {
			t.Fatalf("MergePhrases(%q) over %q:\n  got  %q\n  want %q", toks, phrases, got, want)
		}
		tok := &Tokenizer{Lexicon: lex}
		text := JoinQuery(toks)
		if got, want := tok.Tokenize(text), tokenizeReference(tok, text); !sameTokens(got, want) {
			t.Fatalf("Tokenize(%q) over %q:\n  got  %q\n  want %q", text, phrases, got, want)
		}
	})
}
