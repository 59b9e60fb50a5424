package textproc

import "strings"

// Lexicon holds known multi-word phrases so tokenization can merge adjacent
// terms into a single phrase token ("data" "mining" → "data mining"). The
// paper's tokenization treats a phrase that maps to a type as one word
// (§VI-A); the type dictionary supplies those phrases.
type Lexicon struct {
	// phrases maps each phrase to its canonical Token so a merge can
	// reuse the interned string instead of materializing a new one per
	// occurrence (the map is probed by string(joinBuf), which Go
	// compiles to an allocation-free lookup).
	phrases map[string]Token
	// longest maps each phrase's first word to the word count of the
	// longest phrase it starts: a merge is tried only where a phrase can
	// start, and never longer than the longest one starting there.
	longest map[string]int
	maxLen  int
}

// NewLexicon builds a Lexicon from phrase strings, lowercased and with
// every run of whitespace read as one space — merging joins tokens with a
// single space, so "Data \t Mining" is the phrase "data mining". Only
// entries of two or more words matter for merging; single words are
// ignored.
func NewLexicon(phrases []string) *Lexicon {
	l := &Lexicon{phrases: make(map[string]Token, len(phrases)), longest: make(map[string]int)}
	for _, p := range phrases {
		words := strings.Fields(strings.ToLower(p))
		n := len(words)
		if n < 2 {
			continue
		}
		p = strings.Join(words, " ")
		l.phrases[p] = Token(p)
		l.longest[words[0]] = max(l.longest[words[0]], n)
		l.maxLen = max(l.maxLen, n)
	}
	return l
}

// MaxLen reports the number of terms in the longest phrase.
func (l *Lexicon) MaxLen() int { return l.maxLen }

// Len reports the number of multi-word phrases.
func (l *Lexicon) Len() int { return len(l.phrases) }

// Contains reports whether the exact phrase is in the lexicon.
func (l *Lexicon) Contains(phrase string) bool {
	_, ok := l.phrases[phrase]
	return ok
}

// MergePhrases greedily merges runs of tokens that form a known phrase,
// longest match first, scanning left to right. Input tokens must already be
// normalized (lowercase).
func (l *Lexicon) MergePhrases(tokens []Token) []Token {
	if l == nil || l.maxLen < 2 || len(tokens) < 2 {
		return tokens
	}
	out, _ := l.appendMerged(make([]Token, 0, len(tokens)), tokens, nil)
	return out
}

// appendMerged is the append-style core of MergePhrases: merged tokens go
// into dst. A position costs one probe of the first-word index; only where
// a phrase can start are the candidate joins, longest first, probed
// against the lexicon through the reusable join buffer (map lookups keyed
// by string(join) do not allocate), and a hit appends the lexicon's
// interned Token, so merging allocates nothing. Returns dst and the
// (possibly grown) join buffer.
func (l *Lexicon) appendMerged(dst []Token, tokens []Token, join []byte) ([]Token, []byte) {
	for i := 0; i < len(tokens); {
		n := min(l.longest[firstWord(tokens[i])], len(tokens)-i)
		for ; n >= 2; n-- {
			join = appendJoined(join[:0], tokens[i:i+n])
			if ph, ok := l.phrases[string(join)]; ok {
				dst = append(dst, ph)
				break
			}
		}
		if n < 2 {
			dst = append(dst, tokens[i])
			n = 1
		}
		i += n
	}
	return dst, join
}

// firstWord is tok up to its first space: the first word of every join
// that starts with tok (a token holds a space only when it is itself a
// merged phrase).
func firstWord(tok Token) string {
	if j := strings.IndexByte(tok, ' '); j >= 0 {
		return tok[:j]
	}
	return tok
}
