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

// blockElements end the current paragraph on open and on close — the same
// block-level segmentation jsoup-based pipelines use.
var blockElements = map[string]bool{
	"address": true, "article": true, "aside": true, "blockquote": true,
	"body": true, "caption": true, "dd": true, "div": true, "dl": true,
	"dt": true, "fieldset": true, "figcaption": true, "figure": true,
	"footer": true, "form": true, "h1": true, "h2": true, "h3": true,
	"h4": true, "h5": true, "h6": true, "header": true, "hr": true,
	"html": true, "li": true, "main": true, "nav": true, "ol": true,
	"p": true, "pre": true, "section": true, "table": true, "tbody": true,
	"td": true, "tfoot": true, "th": true, "thead": true, "tr": true,
	"ul": true,
}

// skipElements have their entire content discarded.
var skipElements = map[string]bool{
	"script": true, "style": true, "noscript": true,
	"textarea": true, "svg": true, "iframe": true,
}

// Parse tokenizes and segments an HTML document. It never fails; the
// worst malformed input yields an empty Document.
func Parse(src string) *Document {
	d := &Document{Meta: make(map[string]string)}
	lx := NewLexer(src)

	var text strings.Builder // accumulating paragraph text
	var curAttrs map[string]string
	skipDepth := 0 // inside script/style/svg/iframe
	inTitle := false
	var title strings.Builder

	flush := func() {
		para := normalizeSpace(text.String())
		text.Reset()
		if para == "" {
			curAttrs = nil
			return
		}
		d.Paragraphs = append(d.Paragraphs, para)
		d.ParaAttrs = append(d.ParaAttrs, curAttrs)
		curAttrs = nil
	}

	for {
		tok, ok := lx.Next()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			if skipDepth > 0 {
				continue
			}
			if inTitle {
				title.WriteString(tok.Data)
				continue
			}
			text.WriteString(tok.Data)
		case StartTagToken, SelfClosingTagToken:
			name := tok.Data
			if skipElements[name] {
				if tok.Type == StartTagToken {
					skipDepth++
				}
				continue
			}
			switch {
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
				text.WriteByte(' ') // anchors separate words
			case name == "br":
				text.WriteByte('\n')
			case blockElements[name]:
				flush()
				curAttrs = dataAttrs(tok.Attrs)
			default:
				// Inline element: word boundary, no paragraph break.
				text.WriteByte(' ')
			}
		case EndTagToken:
			name := tok.Data
			if skipElements[name] {
				if skipDepth > 0 {
					skipDepth--
				}
				continue
			}
			switch {
			case name == "title":
				inTitle = false
			case name == "a":
				text.WriteByte(' ')
			case blockElements[name]:
				flush()
			default:
				text.WriteByte(' ')
			}
		case CommentToken, DoctypeToken:
			// Ignored.
		}
	}
	flush()
	d.Title = normalizeSpace(title.String())
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
// byte pass answers the two common cases without building anything: text
// that is all whitespace (most runs between block tags) is "", and ASCII
// text that is already normalized is returned as it is. Anything else — a
// byte ≥ 0x80 (which may start a no-break space) or a whitespace run to
// collapse — takes the rune loop, normalizeSpaceReference.
func normalizeSpace(s string) string {
	blank, space := true, false // blank: only whitespace so far; space: the last byte was
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 0x80:
			return normalizeSpaceReference(s)
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f':
			if !blank && (c != ' ' || space) {
				return normalizeSpaceReference(s) // a run, or a separator other than one space
			}
			space = true
		default:
			if blank && i > 0 {
				return normalizeSpaceReference(s) // leading whitespace
			}
			blank, space = false, false
		}
	}
	if blank {
		return ""
	}
	if space {
		return normalizeSpaceReference(s) // trailing whitespace
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
