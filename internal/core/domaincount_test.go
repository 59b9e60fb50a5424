package core

import (
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// TestDomainCountWhenKeysAlias: the count keys n-grams by term ids, which
// stand for one string only while every gram is canonical. Where two
// different token runs spell one string — a run across a paragraph
// boundary that the lexicon would merge (a phrase of two words, and one
// of three that ends two tokens past the boundary), pages of two
// tokenizers, pages of ready-made tokens — the model must still equal the
// by-string LearnDomainReference's.
func TestDomainCountWhenKeysAlias(t *testing.T) {
	phrases := &textproc.Tokenizer{Lexicon: textproc.NewLexicon([]string{"data mining"})}
	phrases3 := &textproc.Tokenizer{Lexicon: textproc.NewLexicon([]string{"data mining systems"})}
	plain := &textproc.Tokenizer{}
	page := func(id int, e corpus.EntityID, tok *textproc.Tokenizer, texts ...string) *corpus.Page {
		p := &corpus.Page{ID: corpus.PageID(id), Entity: e}
		paras := make([]corpus.Paragraph, len(texts))
		for i, text := range texts {
			paras[i].Text = text
			if tok == nil {
				paras[i].Tokens = plain.Tokenize(text)
			}
		}
		p.SetParas(paras, tok)
		return p
	}
	cases := map[string][]*corpus.Page{
		"across a paragraph end": {
			page(0, 0, phrases, "we study data", "mining is fun"),
			page(1, 1, phrases, "data mining rocks"),
			page(2, 2, phrases, "more data mining"),
		},
		"a three-word phrase across a paragraph end": {
			page(0, 0, phrases3, "we study data", "mining systems rock"),
			page(1, 1, phrases3, "data mining systems rock"),
			page(2, 2, phrases3, "new data mining systems"),
		},
		"two tokenizers": {
			page(0, 0, phrases, "data mining rocks"),
			page(1, 1, plain, "data mining rocks"),
			page(2, 1, phrases, "data mining again"),
		},
		"ready-made tokens": {
			page(0, 0, nil, "data mining rocks"),
			page(1, 1, nil, "data mining rocks"),
		},
		"one tokenizer": {
			page(0, 0, phrases, "data mining rocks", "rocks and data"),
			page(1, 1, phrases, "data mining rocks"),
			page(2, 1, phrases, "mining data rocks"),
		},
	}
	for name, pages := range cases {
		t.Run(name, func(t *testing.T) {
			c := corpus.New("test")
			var ids []corpus.EntityID
			for _, p := range pages {
				if c.Entity(p.Entity) == nil {
					if err := c.AddEntity(&corpus.Entity{ID: p.Entity}); err != nil {
						t.Fatal(err)
					}
					ids = append(ids, p.Entity)
				}
				if err := c.AddPage(p); err != nil {
					t.Fatal(err)
				}
			}
			y := func(p *corpus.Page) bool { return p.ID != 1 }
			rec := types.NewRegexRecognizer()
			got, err := LearnDomain(DefaultConfig(), "X", c, ids, y, rec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := LearnDomainReference(DefaultConfig(), "X", c, ids, y, nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			if field := diffDomainModels(got, want); field != "" {
				t.Fatalf("domain model differs from the reference in %s", field)
			}
		})
	}
}
