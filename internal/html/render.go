package html

import (
	"strconv"
	"strings"
	"sync"

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
//
// RenderPage is AppendPage into a pooled buffer: the returned string is
// its one allocation.
func RenderPage(p *corpus.Page) string {
	bp := renderBufs.Get().(*[]byte)
	*bp = AppendPage((*bp)[:0], p)
	s := string(*bp)
	renderBufs.Put(bp)
	return s
}

var renderBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// AppendPage appends RenderPage's document for p to dst and returns the
// extended buffer.
func AppendPage(dst []byte, p *corpus.Page) []byte {
	dst = append(dst, "<!DOCTYPE html>\n<html>\n<head>\n<title>"...)
	dst = appendEscaped(dst, p.Title, false)
	dst = append(dst, "</title>\n<meta name=\"l2q-page-id\" content=\""...)
	dst = strconv.AppendInt(dst, int64(p.ID), 10)
	dst = append(dst, "\"/>\n<meta name=\"l2q-entity-id\" content=\""...)
	dst = strconv.AppendInt(dst, int64(p.Entity), 10)
	dst = append(dst, "\"/>\n<style>body{font-family:serif}</style>\n</head>\n<body>\n<h1>"...)
	dst = appendEscaped(dst, p.Title, false)
	dst = append(dst, "</h1>\n"...)
	for i := range p.Paras {
		para := &p.Paras[i]
		if para.Aspect != "" {
			dst = append(dst, "<p data-aspect=\""...)
			dst = appendEscaped(dst, string(para.Aspect), true)
			dst = append(dst, "\">"...)
		} else {
			dst = append(dst, "<p>"...)
		}
		dst = appendEscaped(dst, para.Text, false)
		dst = append(dst, "</p>\n"...)
	}
	if len(p.Links) > 0 {
		dst = append(dst, "<nav>\n"...)
		for _, l := range p.Links {
			dst = append(dst, "<a href=\""...)
			dst = appendPageHref(dst, l)
			dst = append(dst, "\">related page "...)
			dst = strconv.AppendInt(dst, int64(l), 10)
			dst = append(dst, "</a>\n"...)
		}
		dst = append(dst, "</nav>\n"...)
	}
	return append(dst, "</body>\n</html>\n"...)
}

// PageHref is the canonical relative URL of a corpus page in the rendered
// site; ParseHref inverts it.
func PageHref(id corpus.PageID) string {
	var buf [32]byte
	return string(appendPageHref(buf[:0], id))
}

func appendPageHref(dst []byte, id corpus.PageID) []byte {
	dst = append(dst, "/page/"...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	return append(dst, ".html"...)
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
// and resolves canonical links. It does not tokenize: the page keeps tok
// and tokenizes its text on the first read of its tokens (corpus.Page). The
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
	if len(d.Links) > 0 {
		p.Links = make([]corpus.PageID, 0, len(d.Links))
	}
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
