// Package textproc provides the text-processing substrate for L2Q: a
// tokenizer, stopword filtering, lexicon-driven phrase merging, n-gram
// enumeration with a sliding window, and paragraph handling.
//
// The paper models every page and query as a bag of words, where a word is a
// term or a phrase depending on tokenization (§I "Data model"). Candidate
// queries are enumerated by sliding a window of ℓ ∈ {1..L} words over a page
// (§VI-A "Candidate query enumeration"); this package implements that
// machinery so that the corpus, search and core layers can share one
// definition of "word".
//
// Tokenization is on the per-query and per-page hot path (every page
// ingest, every candidate enumeration, every remote search re-tokenizes),
// so the split is allocation-disciplined: ASCII text — the overwhelmingly
// common case for web-ish corpora — runs through a byte-class LUT and
// emits tokens as substrings of the input (zero copies, zero allocations
// beyond the caller's buffer); any non-ASCII byte falls back to the
// retained rune-at-a-time path, kept verbatim as SplitWordsReference and
// held to byte-identical output by differential and fuzz tests.
package textproc

import (
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Token is a single word after normalization. A Token may be a multi-word
// phrase (e.g. "data mining") when a Lexicon merged adjacent terms; phrase
// tokens use a single space as the internal separator.
type Token = string

// Tokenizer splits raw text into normalized tokens. The zero value is ready
// to use and performs lowercase ASCII-folding word splitting with no phrase
// merging. Stopwords are not dropped here: they filter candidate n-grams
// (NGramConfig.Stopwords), never a page's token sequence.
type Tokenizer struct {
	// Lexicon, when non-nil, merges adjacent terms into known phrases
	// (longest match wins, up to Lexicon.MaxLen terms).
	Lexicon *Lexicon
}

// RoundTrips reports whether every run of consecutive tokens t emitted
// from one text joins back to its own tokenization:
// t.Tokenize(JoinQuery(run)) == run. It holds for every tokenizer: t only
// splits and merges phrases, and merging is greedy from a token boundary,
// so a run re-merges exactly as it merged in its text
// (FuzzGramTokensRoundTrip). A run across two texts — a page's paragraph
// end — need not: "data" ending one paragraph and "mining" opening the
// next join to a phrase the lexicon merges. The domain count and a
// harvesting session key the n-grams of a page t tokenized by their term
// ids only when this holds, and ask Canonical of a run across a paragraph
// end; otherwise they dedup n-grams by string.
func (t *Tokenizer) RoundTrips() bool { return t != nil }

// Canonical reports whether run, consecutive tokens t emitted from one
// text or from several, is t's tokenization of its own join:
// t.Tokenize(JoinQuery(run)) == run. Each token's words split to
// themselves (RoundTrips), so only the phrase merge can differ: the run's
// words are merged again in pooled scratch, and no string is made.
func (t *Tokenizer) Canonical(run []Token) bool {
	if t.Lexicon == nil || t.Lexicon.MaxLen() < 2 {
		return true
	}
	sc := tokenScratchPool.Get().(*tokenScratch)
	words := sc.raw[:0]
	for _, tok := range run {
		for {
			i := strings.IndexByte(tok, ' ')
			if i < 0 {
				break
			}
			words = append(words, tok[:i])
			tok = tok[i+1:]
		}
		words = append(words, tok)
	}
	merged := words
	if len(words) >= 2 {
		sc.merged, sc.join = t.Lexicon.appendMerged(sc.merged[:0], words, sc.join)
		merged = sc.merged
	}
	ok := slices.Equal(merged, run)
	sc.raw = words
	tokenScratchPool.Put(sc)
	return ok
}

// tokenScratch is the pooled per-call working state of
// Tokenizer.AppendTokens and Tokenizer.Canonical: the raw split buffer,
// the phrase-merge buffer, and the byte buffer the lexicon probe joins
// candidate phrases into. The slices hold only string headers, so pooling
// them never retains page text.
type tokenScratch struct {
	raw    []Token
	merged []Token
	join   []byte
}

var tokenScratchPool = sync.Pool{New: func() any { return new(tokenScratch) }}

// Tokenize splits text into normalized tokens, merging phrases when the
// Tokenizer has a Lexicon.
func (t *Tokenizer) Tokenize(text string) []Token {
	return t.AppendTokens(nil, text)
}

// AppendTokens is Tokenize with a caller-provided result buffer: tokens are
// appended to dst and the grown slice returned. All intermediate state
// (the raw split, the phrase merge) lives in pooled scratch, so a caller
// that reuses dst across calls tokenizes without allocating — the
// convention every hot path in this repository follows (see DESIGN.md
// "Allocation discipline").
func (t *Tokenizer) AppendTokens(dst []Token, text string) []Token {
	sc := tokenScratchPool.Get().(*tokenScratch)
	raw := AppendTokens(sc.raw[:0], text)
	toks := raw
	if t.Lexicon != nil && t.Lexicon.MaxLen() >= 2 && len(raw) >= 2 {
		sc.merged, sc.join = t.Lexicon.appendMerged(sc.merged[:0], raw, sc.join)
		toks = sc.merged
	}
	dst = append(dst, toks...)
	sc.raw = raw
	tokenScratchPool.Put(sc)
	return dst
}

// Byte classes of the ASCII fast path. A byte is either token-forming
// as-is (lower-case letters, digits), token-forming after folding
// (upper-case letters), a conditional connector ('@' '.' '-': kept inside
// a token when followed by an alphanumeric), or a separator (everything
// else, including all bytes ≥ 0x80 — those divert to the rune path).
const (
	clAlnum byte = 1 << iota // a-z, 0-9, A-Z
	clUpper                  // A-Z only (needs folding)
	clConn                   // @ . -
)

var asciiClass = func() (t [256]byte) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] = clAlnum
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = clAlnum
	}
	for c := 'A'; c <= 'Z'; c++ {
		t[c] = clAlnum | clUpper
	}
	t['@'], t['.'], t['-'] = clConn, clConn, clConn
	return
}()

// SplitWords performs the base tokenization: lowercasing, splitting on any
// rune that is neither a letter nor a digit, with two exceptions that keep
// web-ish tokens intact: '@' and '.' inside a token are preserved when the
// token looks like an email or a dotted host so that regex recognizers
// downstream can classify them.
func SplitWords(text string) []Token {
	return AppendTokens(nil, text)
}

// AppendTokens is SplitWords with a caller-provided buffer. ASCII input is
// split with a byte-class LUT and tokens that are already lower-case are
// emitted as substrings of text — no copy, no allocation beyond dst.
// Input containing any non-ASCII byte takes the retained rune path
// (SplitWordsReference semantics) for the whole text. The two paths are
// differentially tested to produce identical tokens.
func AppendTokens(dst []Token, text string) []Token {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			return appendTokensUnicode(dst, text)
		}
	}
	n := len(text)
	i := 0
	for i < n {
		// Skip separators. Connectors never start a token (the reference
		// keeps them only when the builder already has content).
		for i < n && asciiClass[text[i]]&clAlnum == 0 {
			i++
		}
		if i >= n {
			break
		}
		start := i
		needsFold := false
		for i < n {
			cl := asciiClass[text[i]]
			if cl&clAlnum != 0 {
				needsFold = needsFold || cl&clUpper != 0
				i++
				continue
			}
			if cl&clConn != 0 && i+1 < n && asciiClass[text[i+1]]&clAlnum != 0 {
				// Keep intra-token punctuation for emails, hosts and
				// hyphenated terms: "snir@illinois.edu", "e-class".
				i++
				continue
			}
			break
		}
		tok := text[start:i]
		if needsFold {
			tok = strings.ToLower(tok)
		}
		dst = append(dst, tok)
	}
	return dst
}

// SplitWordsReference is the retained rune-at-a-time tokenization the LUT
// fast path is differentially tested against (the repository's fast-path +
// *Reference idiom). It is also the fallback AppendTokens takes for text
// containing non-ASCII bytes, where lowercasing and letter/digit classes
// need full Unicode semantics.
func SplitWordsReference(text string) []Token {
	return appendTokensUnicode(nil, text)
}

func appendTokensUnicode(dst []Token, text string) []Token {
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			dst = append(dst, b.String())
			b.Reset()
		}
	}
	runes := []rune(text)
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case (r == '@' || r == '.' || r == '-') && b.Len() > 0 && i+1 < len(runes) &&
			(unicode.IsLetter(runes[i+1]) || unicode.IsDigit(runes[i+1])):
			// Keep intra-token punctuation for emails, hosts and
			// hyphenated terms: "snir@illinois.edu", "e-class".
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return dst
}

// JoinQuery renders a token sequence as the canonical query string: tokens
// separated by single spaces. It is the inverse of splitting a query on
// spaces, and is used as the map key identifying a query everywhere.
func JoinQuery(tokens []Token) string {
	return strings.Join(tokens, " ")
}

// SplitQuery splits a canonical query string back into its tokens.
func SplitQuery(q string) []Token {
	if q == "" {
		return nil
	}
	return AppendSplitQuery(make([]Token, 0, strings.Count(q, " ")+1), q)
}

// AppendSplitQuery is SplitQuery with a caller-provided buffer: an indexed
// split that appends each space-separated field of q (substrings, no
// copies) to dst. Field semantics match strings.Split exactly, including
// empty fields from doubled or trailing separators.
func AppendSplitQuery(dst []Token, q string) []Token {
	for {
		i := strings.IndexByte(q, ' ')
		if i < 0 {
			return append(dst, q)
		}
		dst = append(dst, q[:i])
		q = q[i+1:]
	}
}
