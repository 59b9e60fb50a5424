package html

import "strings"

// Document is the segmented view of one HTML page: what the harvesting
// pipeline needs downstream — a title, metadata, paragraph texts, and
// outgoing links. It is the output of Parse.
type Document struct {
	// Title is the text of the first <title> element.
	Title string
	// Meta maps <meta name=...> to its content attribute.
	Meta map[string]string
	// Paragraphs are the block-segmented text runs, whitespace-normalized,
	// in document order. Empty runs are dropped.
	Paragraphs []string
	// ParaAttrs carries, for each paragraph, the data-* attributes of the
	// block element that opened it (e.g. data-aspect on rendered corpus
	// pages). Index-aligned with Paragraphs; nil when the block had none.
	ParaAttrs []map[string]string
	// Links are the href values of <a> elements, in document order,
	// duplicates preserved.
	Links []string
}

// isBlockElement reports whether the element ends the current paragraph on
// open and on close — the same block-level segmentation jsoup-based
// pipelines use.
func isBlockElement(name string) bool {
	switch name {
	case "address", "article", "aside", "blockquote", "body", "caption",
		"dd", "div", "dl", "dt", "fieldset", "figcaption", "figure",
		"footer", "form", "h1", "h2", "h3", "h4", "h5", "h6", "header",
		"hr", "html", "li", "main", "nav", "ol", "p", "pre", "section",
		"table", "tbody", "td", "tfoot", "th", "thead", "tr", "ul":
		return true
	}
	return false
}

// isSkipElement reports whether the element's entire content is discarded.
func isSkipElement(name string) bool {
	switch name {
	case "script", "style", "noscript", "textarea", "svg", "iframe":
		return true
	}
	return false
}

// textRun accumulates the text of one paragraph, or of the title. A run of
// one piece — most paragraphs are a single text token between two block
// tags — is that piece, a substring of the source; a second piece starts a
// copy into a buffer the next runs reuse.
type textRun struct {
	one  string
	buf  []byte
	many bool
}

func (r *textRun) add(s string) {
	switch {
	case s == "":
	case r.many:
		r.buf = append(r.buf, s...)
	case r.one == "":
		r.one = s
	default:
		r.buf = append(append(r.buf[:0], r.one...), s...)
		r.many = true
	}
}

// take returns the run's text, whitespace-normalized, and empties the run.
func (r *textRun) take() string {
	s := r.one
	if r.many {
		s = string(r.buf)
	}
	r.one, r.many = "", false
	return normalizeSpace(s)
}

// Parse tokenizes and segments an HTML document. It never fails; the
// worst malformed input yields an empty Document.
func Parse(src string) *Document {
	d := &Document{Meta: make(map[string]string)}
	lx := Lexer{src: src}

	var text, title textRun
	var attrs []Attribute // the lexer's attribute buffer, reused tag to tag
	var curAttrs map[string]string
	skipDepth := 0 // inside script/style/svg/iframe
	inTitle := false

	flush := func() {
		if para := text.take(); para != "" {
			d.Paragraphs = append(d.Paragraphs, para)
			d.ParaAttrs = append(d.ParaAttrs, curAttrs)
		}
		curAttrs = nil
	}

	for {
		tok, ok := lx.next(attrs)
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			switch {
			case skipDepth > 0:
			case inTitle:
				title.add(tok.Data)
			default:
				text.add(tok.Data)
			}
		case StartTagToken, SelfClosingTagToken:
			attrs = tok.Attrs
			switch name := tok.Data; {
			case isSkipElement(name):
				if tok.Type == StartTagToken {
					skipDepth++
				}
			case name == "title":
				if tok.Type == StartTagToken {
					inTitle = true
				}
			case name == "meta":
				if k, ok := tok.Attr("name"); ok {
					if v, ok := tok.Attr("content"); ok {
						d.Meta[k] = v
					}
				}
			case name == "a":
				if href, ok := tok.Attr("href"); ok && href != "" {
					d.Links = append(d.Links, href)
				}
				text.add(" ") // anchors separate words
			case name == "br":
				text.add("\n")
			case isBlockElement(name):
				flush()
				curAttrs = dataAttrs(tok.Attrs)
			default:
				// Inline element: word boundary, no paragraph break.
				text.add(" ")
			}
		case EndTagToken:
			switch name := tok.Data; {
			case isSkipElement(name):
				if skipDepth > 0 {
					skipDepth--
				}
			case name == "title":
				inTitle = false
			case isBlockElement(name):
				flush()
			default:
				// An inline element's end, </a> included: a word boundary.
				text.add(" ")
			}
		case CommentToken, DoctypeToken:
			// Ignored.
		}
	}
	flush()
	d.Title = title.take()
	return d
}

// dataAttrs extracts data-* attributes (without the prefix) or nil.
func dataAttrs(attrs []Attribute) map[string]string {
	var m map[string]string
	for _, a := range attrs {
		if strings.HasPrefix(a.Key, "data-") {
			if m == nil {
				m = make(map[string]string, 2)
			}
			m[a.Key[len("data-"):]] = a.Val
		}
	}
	return m
}

// normalizeSpace collapses whitespace runs to single spaces and trims. One
// byte pass answers the two common cases without building anything: ASCII
// text that is already normalized is returned as it is, and text that is
// all whitespace (most runs between block tags) is "". Anything else — a
// byte ≥ 0x80 (which may start a no-break space), a control byte or a
// whitespace run to collapse — takes the rune loop,
// normalizeSpaceReference.
func normalizeSpace(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c > ' ' && c < 0x80 {
			continue // printable ASCII, the common byte
		}
		if s[i] == ' ' && i > 0 && i+1 < len(s) && s[i-1] != ' ' {
			continue // one space between two printable bytes
		}
		if strings.TrimLeft(s, " \t\n\r\f") == "" {
			return ""
		}
		return normalizeSpaceReference(s)
	}
	return s
}

// normalizeSpaceReference is the rune-at-a-time normalization, the path
// for everything normalizeSpace's byte pass does not answer and the oracle
// its differential test holds it to.
func normalizeSpaceReference(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := true // leading spaces dropped
	for _, r := range s {
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == '\f' || r == '\u00a0' {
			if !space {
				b.WriteByte(' ')
				space = true
			}
			continue
		}
		b.WriteRune(r)
		space = false
	}
	return strings.TrimRight(b.String(), " ")
}
