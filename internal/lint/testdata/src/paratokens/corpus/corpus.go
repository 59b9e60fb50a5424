// Package corpus stands in for internal/corpus: the paratokens analyzer
// recognizes the Paragraph type of any package whose last path element is
// corpus, and lets that package read the field (it owns the layout).
package corpus

// Paragraph mirrors the real one: text, ready-made tokens, a label.
type Paragraph struct {
	Text   string
	Tokens []string
	Aspect string
}

// Page keeps its paragraphs' tokens itself.
type Page struct {
	Paras  []Paragraph
	tokens []string
}

// ParaTokens is the page's own reader: inside the corpus package the
// field is the page's business, so nothing here is reported.
func (p *Page) ParaTokens(i int) []string {
	if p.tokens == nil {
		return p.Paras[i].Tokens
	}
	return p.tokens
}
