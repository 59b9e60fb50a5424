// Package types implements the type system behind L2Q templates.
//
// A type is a named set of words (Def. 1 in the paper): 〈topic〉 = {hpc,
// "data mining", ai, ...}. The paper sources types from three places
// (§VI-A "Templates"): a knowledge-base dictionary (Freebase + Microsoft
// Academic), NLP named-entity recognizers, and regular expressions for
// well-formed strings (〈email〉, 〈phonenum〉, 〈url〉). This package provides
// all three as Recognizers that can be chained, with the knowledge base
// materialized as an in-memory dictionary (the synthetic-web generator
// exports one covering its vocabulary pools — our stand-in for Freebase).
package types

import (
	"fmt"
	"reflect"
	"regexp"
	"regexp/syntax"
	"sort"
	"strings"
	"unicode"
)

// Type is the name of a word class, e.g. "topic", "journal", "institute".
// Template strings render a type unit as 〈name〉.
type Type string

// Render returns the template-unit rendering of the type, e.g. "〈topic〉".
func (t Type) Render() string { return "〈" + string(t) + "〉" }

// Recognizer maps a word (term or phrase) to the types it belongs to.
// Implementations must be safe for concurrent use after construction.
type Recognizer interface {
	// TypesOf returns the types of the word, or nil if unrecognized.
	TypesOf(word string) []Type
}

// Dictionary is a knowledge-base-backed Recognizer: an explicit map from
// words and phrases to their types. It is the stand-in for Freebase /
// Microsoft Academic Search in the paper.
type Dictionary struct {
	byWord  map[string][]Type
	phrases []string // multi-word entries, for lexicon construction
}

// NewDictionary creates an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byWord: make(map[string][]Type)}
}

// Add maps a word or phrase to a type. Words are normalized to lowercase.
// Adding the same (word, type) pair twice is a no-op.
func (d *Dictionary) Add(word string, t Type) {
	word = strings.ToLower(strings.TrimSpace(word))
	if word == "" {
		return
	}
	for _, existing := range d.byWord[word] {
		if existing == t {
			return
		}
	}
	if len(d.byWord[word]) == 0 && strings.Contains(word, " ") {
		d.phrases = append(d.phrases, word)
	}
	d.byWord[word] = append(d.byWord[word], t)
}

// AddAll maps every word in words to type t.
func (d *Dictionary) AddAll(t Type, words ...string) {
	for _, w := range words {
		d.Add(w, t)
	}
}

// TypesOf implements Recognizer.
func (d *Dictionary) TypesOf(word string) []Type {
	return d.byWord[word]
}

// Phrases returns all multi-word dictionary entries; feed these to
// textproc.NewLexicon so tokenization keeps phrases intact.
func (d *Dictionary) Phrases() []string {
	out := make([]string, len(d.phrases))
	copy(out, d.phrases)
	return out
}

// Len reports the number of distinct words in the dictionary.
func (d *Dictionary) Len() int { return len(d.byWord) }

// Types returns the sorted set of all types appearing in the dictionary.
func (d *Dictionary) Types() []Type {
	set := make(map[Type]struct{})
	for _, ts := range d.byWord {
		for _, t := range ts {
			set[t] = struct{}{}
		}
	}
	out := make([]Type, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WordsOf returns the sorted words belonging to type t (mostly for tests
// and debugging; recognition goes the other way).
func (d *Dictionary) WordsOf(t Type) []string {
	var out []string
	for w, ts := range d.byWord {
		for _, wt := range ts {
			if wt == t {
				out = append(out, w)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// RegexRecognizer classifies well-formed strings by regular expression,
// mirroring the paper's third option (〈phonenum〉, 〈url〉, 〈email〉).
type RegexRecognizer struct {
	rules []regexRule
}

type regexRule struct {
	t  Type
	re *regexp.Regexp
	// plain reports whether the rule could match a plain word — one made
	// of the bytes a–z and space only, which is what most tokens and
	// phrases are. Every stock rule demands a digit or a punctuation mark
	// somewhere, so TypesOf answers plain words without running a regex.
	plain bool
}

// NewRegexRecognizer returns a recognizer with the paper's well-formed-text
// types plus 〈year〉 and 〈money〉, which the car domain needs for PRICE.
func NewRegexRecognizer() *RegexRecognizer {
	r := &RegexRecognizer{}
	// Rules are anchored: the whole token must match.
	r.MustAdd("email", `[a-z0-9._%+\-]+@[a-z0-9.\-]+\.[a-z]{2,}`)
	r.MustAdd("url", `(https?://)?(www\.)?[a-z0-9\-]+(\.[a-z0-9\-]+)+(/\S*)?`)
	r.MustAdd("phonenum", `(\+?[0-9]{1,3}[\-. ]?)?(\([0-9]{3}\)|[0-9]{3})[\-. ][0-9]{3}[\-. ][0-9]{4}`)
	r.MustAdd("year", `(19|20)[0-9]{2}`)
	r.MustAdd("money", `\$[0-9]+(,[0-9]{3})*(\.[0-9]+)?k?`)
	return r
}

// MustAdd registers a rule, panicking on a bad pattern (programmer error).
func (r *RegexRecognizer) MustAdd(t Type, pattern string) {
	anchored := `^(?:` + pattern + `)$`
	re, err := regexp.Compile(anchored)
	if err != nil {
		panic(fmt.Sprintf("types: bad pattern for %s: %v", t, err))
	}
	tree, err := syntax.Parse(anchored, syntax.Perl) // the flags regexp.Compile uses
	if err != nil {
		panic(fmt.Sprintf("types: bad pattern for %s: %v", t, err))
	}
	r.rules = append(r.rules, regexRule{t: t, re: re, plain: matchesPlain(tree)})
}

// isPlainRune reports whether r is one of the characters of a plain word.
func isPlainRune(r rune) bool { return (r >= 'a' && r <= 'z') || r == ' ' }

// isPlain reports whether word consists of plain bytes only (a byte of a
// multi-byte character is ≥ 0x80, so never plain).
func isPlain(word string) bool {
	for i := 0; i < len(word); i++ {
		if !isPlainRune(rune(word[i])) {
			return false
		}
	}
	return true
}

// matchesPlain reports whether re may match some plain word. It is exact
// in the direction TypesOf relies on: false means no string of plain
// bytes matches (true may be a false alarm, which only costs the regex
// run it would have cost anyway).
func matchesPlain(re *syntax.Regexp) bool {
	switch re.Op {
	case syntax.OpNoMatch:
		return false
	case syntax.OpLiteral:
		for _, r := range re.Rune {
			if !literalMatchesPlain(r, re.Flags&syntax.FoldCase != 0) {
				return false
			}
		}
		return true
	case syntax.OpCharClass: // re.Rune holds inclusive [lo, hi] pairs
		for i := 0; i+1 < len(re.Rune); i += 2 {
			lo, hi := re.Rune[i], re.Rune[i+1]
			if (lo <= ' ' && ' ' <= hi) || (lo <= 'z' && 'a' <= hi) {
				return true
			}
		}
		return false
	case syntax.OpCapture, syntax.OpPlus:
		return matchesPlain(re.Sub[0])
	case syntax.OpRepeat:
		return re.Min == 0 || matchesPlain(re.Sub[0])
	case syntax.OpConcat:
		for _, sub := range re.Sub {
			if !matchesPlain(sub) {
				return false
			}
		}
		return true
	case syntax.OpAlternate:
		for _, sub := range re.Sub {
			if matchesPlain(sub) {
				return true
			}
		}
		return false
	default:
		// Zero-width assertions, . and the operators that accept the
		// empty string (*, ?) never rule a plain word out.
		return true
	}
}

// literalMatchesPlain reports whether the literal rune r — or, under
// case folding, any rune of its fold orbit — is a plain character.
func literalMatchesPlain(r rune, fold bool) bool {
	if isPlainRune(r) {
		return true
	}
	if fold {
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if isPlainRune(f) {
				return true
			}
		}
	}
	return false
}

// TypesOf implements Recognizer. A token can match several rules (a bare
// year is both 〈year〉 and part of no other class); all matches are returned
// in registration order.
func (r *RegexRecognizer) TypesOf(word string) []Type {
	plain := isPlain(word)
	var out []Type
	for _, rule := range r.rules {
		if plain && !rule.plain {
			continue
		}
		if rule.re.MatchString(word) {
			out = append(out, rule.t)
		}
	}
	return out
}

// Chain composes recognizers; the first recognizer that returns a non-nil
// result wins. Put the knowledge-base dictionary before the regex fallback
// so curated types take priority.
type Chain []Recognizer

// TypesOf implements Recognizer.
func (c Chain) TypesOf(word string) []Type {
	for _, r := range c {
		if ts := r.TypesOf(word); len(ts) > 0 {
			return ts
		}
	}
	return nil
}

// Same reports whether a and b are the same recognizer instance, so that
// results derived from one may be reused with the other. Chain is a slice
// — comparing two of them through the interface would panic — so chains
// compare element-wise; any other non-comparable implementation is
// reported as different.
func Same(a, b Recognizer) bool {
	ca, aChain := a.(Chain)
	cb, bChain := b.(Chain)
	if aChain || bChain {
		if !aChain || !bChain || len(ca) != len(cb) {
			return false
		}
		for i := range ca {
			if !Same(ca[i], cb[i]) {
				return false
			}
		}
		return true
	}
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	t := reflect.TypeOf(a)
	return t == reflect.TypeOf(b) && t.Comparable() && a == b
}
