package html

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/synth"
)

// renderPageReference is the fmt-based renderer AppendPage replaced, kept
// as the oracle its output is held to byte for byte.
func renderPageReference(p *corpus.Page) string {
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
			fmt.Fprintf(&b, "<a href=\"/page/%d.html\">related page %d</a>\n", l, l)
		}
		b.WriteString("</nav>\n")
	}
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

var (
	referenceBlockElements = map[string]bool{
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
	referenceSkipElements = map[string]bool{
		"script": true, "style": true, "noscript": true,
		"textarea": true, "svg": true, "iframe": true,
	}
)

// parseReference is the segmenter Parse replaced: map lookups for the
// element sets, every paragraph copied through a strings.Builder, and a
// fresh attribute slice per tag (the exported Lexer.Next). It is the
// oracle FuzzParseMatchesReference holds Parse to.
func parseReference(src string) *Document {
	d := &Document{Meta: make(map[string]string)}
	lx := NewLexer(src)

	var text strings.Builder
	var curAttrs map[string]string
	skipDepth := 0
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
			if referenceSkipElements[name] {
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
				text.WriteByte(' ')
			case name == "br":
				text.WriteByte('\n')
			case referenceBlockElements[name]:
				flush()
				curAttrs = dataAttrs(tok.Attrs)
			default:
				text.WriteByte(' ')
			}
		case EndTagToken:
			name := tok.Data
			if referenceSkipElements[name] {
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
			case referenceBlockElements[name]:
				flush()
			default:
				text.WriteByte(' ')
			}
		}
	}
	flush()
	d.Title = normalizeSpace(title.String())
	return d
}

// TestRenderPageMatchesReference holds AppendPage (through RenderPage) to
// the fmt renderer, byte for byte, on every page of both synthetic
// domains' test corpora.
func TestRenderPageMatchesReference(t *testing.T) {
	for _, dom := range []corpus.Domain{synth.DomainResearchers, synth.DomainCars} {
		g, err := synth.Generate(synth.TestConfig(dom))
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for _, p := range g.Corpus.Pages {
			want := renderPageReference(p)
			if got := RenderPage(p); got != want {
				t.Fatalf("%s page %d: RenderPage\n%q\nreference\n%q", dom, p.ID, got, want)
			}
			buf = AppendPage(append(buf[:0], "prefix"...), p)
			if string(buf) != "prefix"+want {
				t.Fatalf("%s page %d: AppendPage did not append to its buffer", dom, p.ID)
			}
		}
	}
}

// requireSameDocument fails unless Parse and parseReference segment src
// identically.
func requireSameDocument(t *testing.T, src string) {
	t.Helper()
	got, want := Parse(src), parseReference(src)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse(%q)\n= %#v\nreference %#v", src, got, want)
	}
}

// fuzzParseSeeds are documents the differential target starts from: a
// rendered page and its truncations, mixed-case markup, entities,
// comments, unterminated constructs, raw-text elements, and runes whose
// lower case has another UTF-8 length.
func fuzzParseSeeds() []string {
	rendered := RenderPage(&corpus.Page{ID: 42, Entity: 7, Title: "Marc & Snir", Links: []corpus.PageID{3, 99},
		Paras: []corpus.Paragraph{{Text: "He works on <data> mining.", Aspect: "RESEARCH"}, {Text: "Siebel Center, U Illinois."}}})
	return []string{
		rendered, rendered[:len(rendered)/3], rendered[:len(rendered)/2], rendered[:len(rendered)-20],
		`<HTML><Head><TITLE>Mixed</TITLE><META NAME="k" CONTENT="v"></Head><BODY><P DATA-Aspect="X">one</P><Div>two<B>bold</B></DIV></BODY>`,
		`<p>a &amp; b &lt;c&gt; &#65;&#x42; &nbsp;&bogus; &</p><a href="/page/1.html?a=1&amp;b=2">x</a>`,
		`<p>a<!-- <p>hidden</p> -->b</p><!doctype html><?xml version="1.0"?><p>c`,
		`<title>one</title><title>two`, `<p data-a=1 data-b='2' data-c>t`, `<a href=>x</a><a href`, `<p>unclosed <b`,
		`<p>a</p><script>ȺȺȺ</script><p>b</p>`, `<script>` + strings.Repeat("Ⱥ", 20) + `</script><p>b</p>`,
		`<p>a</p><script>x</SCRIPT><p>b</p><style>s</Style ><p>c</p>`,
		`<p>a</p><script>x</scrİpt><p>b</p>`, `<textarea>Ⱦ</textarea><p>K İ</p><noscript>x</noscript>`,
		`<svg><p>inside</p></svg><iframe>f</iframe><p>after</p>`, `<script>`, `<style></style>`, `<script></scr`,
	}
}

// FuzzParseMatchesReference holds Parse to parseReference on any bytes:
// the same title, meta, paragraphs, paragraph attributes and links.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range fuzzParseSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		requireSameDocument(t, string(raw))
	})
}
