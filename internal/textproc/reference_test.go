package textproc

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
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

// FuzzNGramsMatchesReference holds AppendNGrams, which decides
// admissibility from per-token flags, to the per-gram reference on
// random streams over refAlphabet — and the id path to AppendNGrams: the
// first occurrences of AppendGramWindows' keys over the stream's term ids,
// in window order, must be AppendNGrams' grams in its order. The config
// byte picks MaxLen 0–4 (0 is the default 3; the id path stops at
// MaxGramLen) and whether stopwords, an exclude set holding "seed" or an
// empty exclude set apply.
func FuzzNGramsMatchesReference(f *testing.F) {
	f.Add(byte(3|8|16), []byte{4, 0, 1, 8, 9, 5, 0, 1, 2, 11, 14, 13})
	f.Add(byte(4|8), []byte{6, 7, 5, 2, 9, 9, 0, 10, 0, 1})
	f.Add(byte(1|32), []byte{0, 0, 1, 1, 11})
	f.Add(byte(2|8|16), []byte{11, 0, 1, 9, 0, 1, 11, 8, 14, 0, 1, 14})
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
		want := ngramsReference(toks, cfg)
		if got := NGrams(toks, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("NGrams(%q, %+v):\n  got  %q\n  want %q", toks, cfg, got, want)
		}
		if cfg.MaxLen > MaxGramLen {
			return
		}
		var exclude []Token
		for ex := range cfg.Exclude {
			exclude = append(exclude, ex)
		}
		byString, byKey := idGrams(toks, cfg.Stopwords, cfg.MaxLen, exclude)
		if !sameTokens(byString, want) {
			t.Fatalf("id grams of %q, %+v, first per string:\n  got  %q\n  want %q", toks, cfg, byString, want)
		}
		// Keys are strings only for a canonical stream; refAlphabet's one
		// phrase token "data mining" joins like the words "data" "mining"
		// (FuzzGramTokensRoundTrip covers streams a tokenizer made).
		if !slices.ContainsFunc(toks, func(tok Token) bool { return strings.Contains(tok, " ") }) && !sameTokens(byKey, want) {
			t.Fatalf("id grams of %q, %+v, first per key:\n  got  %q\n  want %q", toks, cfg, byKey, want)
		}
	})
}

// idGrams enumerates toks' grams through the id path — term ids of a
// fresh vocabulary, AppendGramWindows — and renders the first window of
// each string and, separately, the first window of each key, in window
// order. It checks every window's key against the stream on the way.
func idGrams(toks []Token, sw *Stopwords, maxLen int, exclude []Token) (byString, byKey []string) {
	v := NewVocabulary(sw)
	ids := v.AppendIDs(nil, toks)
	cfg := IDGramConfig{MaxLen: maxLen, Exclude: v.AppendIDs(nil, exclude)}
	seenString, seenKey := map[string]bool{}, map[GramKey]bool{}
	for _, w := range AppendGramWindows(nil, ids, cfg) {
		n := w.Key.Len()
		if w.Key != GramOf(ids[w.Start:int(w.Start)+n]) {
			panic(fmt.Sprintf("window at %d is not the stream's ids", w.Start))
		}
		q := JoinQuery(toks[w.Start : int(w.Start)+n])
		if !seenString[q] {
			seenString[q] = true
			byString = append(byString, q)
		}
		if !seenKey[w.Key] {
			seenKey[w.Key] = true
			byKey = append(byKey, q)
		}
	}
	return byString, byKey
}

// FuzzGramTokensRoundTrip proves the property the session's key path
// rests on (Tokenizer.RoundTrips): every n-gram of up to MaxGramLen tokens
// a tokenizer emits re-tokenizes, joined, to exactly its own tokens — so a gram's term ids
// are the ids of its string's tokens and one string has one key: the id
// path's first window per key is then AppendNGrams' output. A gram across
// two texts, tokenized apart as a page's paragraphs are, need not
// round-trip, and Tokenizer.Canonical must say which: the stream is also
// tokenized as two texts split at its middle word, and every gram of the
// two is held to its re-tokenization. When the widest run a gram can take
// across the seam is canonical, every gram is (the rule a page's seams
// are checked by). Text is built from refAlphabet words (upper case,
// stopwords and phrase words among them) with the byte's high bits
// choosing the separator, under lexicons of refPhrases subsets, several
// of which share first words.
func FuzzGramTokensRoundTrip(f *testing.F) {
	f.Add(byte(0xff), []byte{0, 1, 2, 3, 0, 1, 4, 5, 6, 7, 5, 9, 0, 3, 8, 14, 2})
	f.Add(byte(0x07), []byte{0, 1, 1, 2, 0, 0x41, 1, 2, 12, 0x81, 1})
	f.Add(byte(0xc8), []byte{9, 0, 3, 8, 12, 3, 13, 0, 14, 1, 10, 0x40, 0})
	f.Fuzz(func(t *testing.T, mask byte, stream []byte) {
		var phrases []string
		for i, p := range refPhrases {
			if mask&(1<<i) != 0 {
				phrases = append(phrases, p)
			}
		}
		tok := &Tokenizer{Lexicon: NewLexicon(phrases)}
		if !tok.RoundTrips() {
			t.Fatal("a tokenizer does not round-trip")
		}
		var b []byte
		mid := 0
		for i, c := range stream {
			if i == len(stream)/2 {
				mid = len(b)
			}
			b = append(b, refAlphabet[int(c&0x3f)%len(refAlphabet)]...)
			b = append(b, " \t.,-"[int(c>>6)%5])
		}
		toks := tok.Tokenize(string(b))
		for l := 1; l <= MaxGramLen; l++ {
			for i := 0; i+l <= len(toks); i++ {
				gram := toks[i : i+l]
				if again := tok.Tokenize(JoinQuery(gram)); !sameTokens(again, gram) {
					t.Fatalf("gram %q of %q re-tokenizes to %q under %q", gram, b, again, phrases)
				}
				if !tok.Canonical(gram) {
					t.Fatalf("gram %q of %q is not canonical under %q", gram, b, phrases)
				}
			}
		}
		two := tok.Tokenize(string(b[:mid]))
		seam := len(two)
		two = tok.AppendTokens(two, string(b[mid:]))
		wide := two[max(0, seam-MaxGramLen+1):min(len(two), seam+MaxGramLen-1)]
		for l := 1; l <= MaxGramLen; l++ {
			for i := 0; i+l <= len(two); i++ {
				gram := two[i : i+l]
				again := tok.Tokenize(JoinQuery(gram))
				got, want := tok.Canonical(gram), sameTokens(again, gram)
				if got != want {
					t.Fatalf("gram %q of %q | %q: Canonical %v, but it re-tokenizes to %q under %q",
						gram, b[:mid], b[mid:], got, again, phrases)
				}
				if !want && tok.Canonical(wide) {
					t.Fatalf("gram %q of %q | %q re-tokenizes to %q under %q, but the widest run %q across the seam is canonical",
						gram, b[:mid], b[mid:], again, phrases, wide)
				}
			}
		}
		cfg := NGramConfig{MaxLen: MaxGramLen, Stopwords: NewStopwords(), Exclude: map[Token]struct{}{"seed": {}}}
		want := NGrams(toks, cfg)
		if _, byKey := idGrams(toks, cfg.Stopwords, cfg.MaxLen, []Token{"seed"}); !sameTokens(byKey, want) {
			t.Fatalf("id grams of %q under %q, first per key:\n  got  %q\n  want %q", toks, phrases, byKey, want)
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
