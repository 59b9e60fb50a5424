package html

import (
	"fmt"
	"strings"

	"l2q/internal/corpus"
	"l2q/internal/textproc"
)

// RenderPage renders a corpus page as a complete HTML document. The
// rendering is a faithful small web page: head with title and meta,
// one <p> per paragraph, and a footer nav with the page's outgoing links.
//
// Paragraph aspect labels are carried in data-aspect attributes. On the
// real Web those labels do not exist — they are produced by the aspect
// classifiers — but our synthetic corpus is also the supervision source
// for those classifiers, so the rendered site must preserve them for the
// ingestion round trip (ParsePage) to rebuild an equivalent corpus.
func RenderPage(p *corpus.Page) string {
	var b strings.Builder
	b.Grow(1024)
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", EscapeText(p.Title))
	fmt.Fprintf(&b, "<meta name=\"l2q-page-id\" content=\"%d\"/>\n", p.ID)
	fmt.Fprintf(&b, "<meta name=\"l2q-entity-id\" content=\"%d\"/>\n", p.Entity)
	b.WriteString("<style>body{font-family:serif}</style>\n")
	b.WriteString("</head>\n<body>\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", EscapeText(p.Title))
	for i := range p.Paras {
		para := &p.Paras[i]
		if para.Aspect != "" {
			fmt.Fprintf(&b, "<p data-aspect=\"%s\">%s</p>\n",
				EscapeAttr(string(para.Aspect)), EscapeText(para.Text))
		} else {
			fmt.Fprintf(&b, "<p>%s</p>\n", EscapeText(para.Text))
		}
	}
	if len(p.Links) > 0 {
		b.WriteString("<nav>\n")
		for _, l := range p.Links {
			fmt.Fprintf(&b, "<a href=\"%s\">related page %d</a>\n", PageHref(l), l)
		}
		b.WriteString("</nav>\n")
	}
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

// PageHref is the canonical relative URL of a corpus page in the rendered
// site; ParseHref inverts it.
func PageHref(id corpus.PageID) string {
	return fmt.Sprintf("/page/%d.html", id)
}

// ParseHref extracts the page ID from a canonical href; ok is false for
// foreign URLs.
func ParseHref(href string) (corpus.PageID, bool) {
	const prefix = "/page/"
	if !strings.HasPrefix(href, prefix) || !strings.HasSuffix(href, ".html") {
		return 0, false
	}
	num := href[len(prefix) : len(href)-len(".html")]
	id := 0
	for i := 0; i < len(num); i++ {
		c := num[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + int(c-'0')
	}
	if num == "" {
		return 0, false
	}
	return corpus.PageID(id), true
}

// ParsePage ingests a rendered HTML document back into a corpus page: it
// segments paragraphs, recovers aspect labels from data-aspect attributes,
// tokenizes with the given tokenizer, and resolves canonical links. The
// entity assignment comes from the l2q-entity-id meta (fallback: the
// provided default). The <h1> heading duplicates the title and is dropped.
func ParsePage(src string, defaultEntity corpus.EntityID, tok *textproc.Tokenizer) *corpus.Page {
	d := Parse(src)
	p := &corpus.Page{ID: d.PageID(), Entity: defaultEntity, Title: d.Title}
	if v, ok := d.Meta["l2q-entity-id"]; ok {
		if id, ok := parseInt(v); ok {
			p.Entity = corpus.EntityID(id)
		}
	}
	var paras []corpus.Paragraph
	for i, text := range d.Paragraphs {
		if text == d.Title && i == 0 {
			continue // the <h1> echo of the title
		}
		if isLinkParagraph(d, i) {
			continue // nav anchor text, not content
		}
		var aspect corpus.Aspect
		if attrs := d.ParaAttrs[i]; attrs != nil {
			aspect = corpus.Aspect(attrs["aspect"])
		}
		if paras == nil {
			paras = make([]corpus.Paragraph, 0, len(d.Paragraphs)-i)
		}
		paras = append(paras, corpus.Paragraph{Text: text, Aspect: aspect})
	}
	p.SetParas(paras, tok)
	for _, href := range d.Links {
		if id, ok := ParseHref(href); ok {
			p.Links = append(p.Links, id)
		}
	}
	return p
}

// PageID is the page ID a rendered document announces in its l2q-page-id
// meta — the ID ParsePage gives the page — and 0 when the meta is missing
// or malformed. A receiver that was told which page to expect compares the
// two to reject a truncated or misrouted body without parsing further.
func (d *Document) PageID() corpus.PageID {
	id, _ := parseInt(d.Meta["l2q-page-id"])
	return corpus.PageID(id)
}

// isLinkParagraph reports whether paragraph i is the rendered nav block
// ("related page N" anchor text).
func isLinkParagraph(d *Document, i int) bool {
	return strings.HasPrefix(d.Paragraphs[i], "related page ")
}

func parseInt(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
