// Package reader exercises the paratokens analyzer outside the corpus
// package.
package reader

import "paratokens/corpus"

// Count reads tokens through the page: allowed.
func Count(p *corpus.Page) int {
	n := 0
	for i := range p.Paras {
		n += len(p.ParaTokens(i))
	}
	return n
}

// Build constructs paragraphs with composite literals and assigns the
// field: both write it, neither reads it.
func Build(words []string) *corpus.Page {
	p := &corpus.Page{Paras: []corpus.Paragraph{{Text: "a b", Tokens: words}}}
	p.Paras[0].Tokens = words
	return p
}

// Direct reads the field by index, through a pointer and through a copy.
func Direct(p *corpus.Page) int {
	n := len(p.Paras[0].Tokens) // want `paratokens: corpus\.Paragraph\.Tokens read outside internal/corpus`
	para := &p.Paras[0]
	for range para.Tokens { // want `paratokens: corpus\.Paragraph\.Tokens read outside internal/corpus`
		n++
	}
	for _, pp := range p.Paras {
		n += len(pp.Tokens) // want `paratokens: corpus\.Paragraph\.Tokens read outside internal/corpus`
	}
	return n
}

// Grow reads the field on the right of an assignment that writes it.
func Grow(para *corpus.Paragraph, t string) {
	para.Tokens = append(para.Tokens, t) // want `paratokens: corpus\.Paragraph\.Tokens read outside internal/corpus`
}

// Other is a different type with a Tokens field: not the corpus one.
type Other struct{ Tokens []string }

// Fine reads a field of the same name on another type.
func Fine(o Other) int { return len(o.Tokens) }
