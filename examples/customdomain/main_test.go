package main

import (
	"testing"

	"l2q/internal/textproc"
	"l2q/internal/types"
)

// TestPageTokensAliasParagraphs: the hand-rolled pages hold their tokens
// once, like every page the library builds (internal/corpus has the same
// test over the other constructors): each paragraph's Tokens is a
// capacity-capped range of the array Tokens returns.
func TestPageTokensAliasParagraphs(t *testing.T) {
	kb := types.NewDictionary()
	kb.AddAll("dish", dishes...)
	c := buildCorpus(&textproc.Tokenizer{Lexicon: textproc.NewLexicon(kb.Phrases())})
	if c.NumPages() != 12*8 {
		t.Fatalf("built %d pages, want 96", c.NumPages())
	}
	for _, p := range c.Pages {
		all, off := p.Tokens(), 0
		for i := range p.Paras {
			pt := p.ParaTokens(i)
			if len(pt) == 0 || &all[off] != &pt[0] || cap(pt) != len(pt) {
				t.Fatalf("page %d paragraph %d (%d tokens, cap %d) is not its own range of Tokens()", p.ID, i, len(pt), cap(pt))
			}
			off += len(pt)
		}
		if off != len(all) {
			t.Fatalf("page %d: paragraphs cover %d of %d tokens", p.ID, off, len(all))
		}
	}
}
