package html

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"l2q/internal/corpus"
	"l2q/internal/textproc"
)

func TestParseBasicDocument(t *testing.T) {
	d := Parse(`<!DOCTYPE html><html><head>
		<title>Marc Snir</title>
		<meta name="author" content="gen">
		<style>p{color:red}</style>
	</head><body>
		<h1>Heading</h1>
		<p>First paragraph.</p>
		<p>Second  with   spaces.</p>
		<div>Third in a div with <b>bold</b> text.</div>
	</body></html>`)

	if d.Title != "Marc Snir" {
		t.Errorf("title = %q", d.Title)
	}
	if d.Meta["author"] != "gen" {
		t.Errorf("meta = %v", d.Meta)
	}
	want := []string{
		"Heading",
		"First paragraph.",
		"Second with spaces.",
		"Third in a div with bold text.",
	}
	if !reflect.DeepEqual(d.Paragraphs, want) {
		t.Errorf("paragraphs = %q, want %q", d.Paragraphs, want)
	}
}

func TestParseSkipsScriptStyle(t *testing.T) {
	d := Parse(`<body><p>keep</p><script>drop me</script><style>p{}</style><p>also keep</p></body>`)
	want := []string{"keep", "also keep"}
	if !reflect.DeepEqual(d.Paragraphs, want) {
		t.Errorf("paragraphs = %q", d.Paragraphs)
	}
}

func TestParseLinks(t *testing.T) {
	d := Parse(`<body><p>See <a href="/page/12.html">twelve</a> and
		<a href="http://other.example.com/">offsite</a>.</p></body>`)
	want := []string{"/page/12.html", "http://other.example.com/"}
	if !reflect.DeepEqual(d.Links, want) {
		t.Errorf("links = %q", d.Links)
	}
	if len(d.Paragraphs) != 1 || !strings.Contains(d.Paragraphs[0], "twelve") {
		t.Errorf("anchor text lost: %q", d.Paragraphs)
	}
}

func TestParseDataAttrs(t *testing.T) {
	d := Parse(`<body><p data-aspect="RESEARCH" data-x="1">a</p><p>b</p></body>`)
	if len(d.Paragraphs) != 2 {
		t.Fatalf("paragraphs = %q", d.Paragraphs)
	}
	if d.ParaAttrs[0]["aspect"] != "RESEARCH" || d.ParaAttrs[0]["x"] != "1" {
		t.Errorf("attrs[0] = %v", d.ParaAttrs[0])
	}
	if d.ParaAttrs[1] != nil {
		t.Errorf("attrs[1] = %v, want nil", d.ParaAttrs[1])
	}
}

func TestParseBrAndInline(t *testing.T) {
	d := Parse(`<body><p>line one<br>line two</p><p>a<em>b</em>c</p></body>`)
	if d.Paragraphs[0] != "line one line two" {
		t.Errorf("br paragraph = %q", d.Paragraphs[0])
	}
	// Inline tags become word boundaries, never paragraph breaks.
	if d.Paragraphs[1] != "a b c" {
		t.Errorf("inline paragraph = %q", d.Paragraphs[1])
	}
}

func TestParseListItems(t *testing.T) {
	d := Parse(`<ul><li>one</li><li>two</li></ul>`)
	want := []string{"one", "two"}
	if !reflect.DeepEqual(d.Paragraphs, want) {
		t.Errorf("list paragraphs = %q", d.Paragraphs)
	}
}

func TestParseMalformedNeverPanics(t *testing.T) {
	for _, src := range []string{
		"", "<", "<<<>>>", "<p", "text only", "<body><p>unclosed",
		"<title>no end", "</unopened></p>", "<a href=>x</a>",
		strings.Repeat("<p>x", 1000),
	} {
		_ = Parse(src) // must not panic
	}
}

// TestParseRawTextEndTag: a raw-text element ends at the first "</" + its
// name matched ASCII case-insensitively in the source itself. Runes whose
// lower case has another UTF-8 length inside the element must neither
// shift where it ends nor panic, and a non-ASCII rune that lower-cases to
// a letter of the name does not spell it.
func TestParseRawTextEndTag(t *testing.T) {
	for _, c := range []struct {
		src  string
		want []string
	}{
		{"<p>a</p><script>ȺȺȺ</script><p>b</p>", []string{"a", "b"}},
		{"<p>a</p><script>" + strings.Repeat("Ⱥ", 20) + "</script><p>b</p>", []string{"a", "b"}},
		{"<p>a</p><script>x</SCRIPT><p>b</p>", []string{"a", "b"}},
		{"<p>a</p><style>x</Style ><p>b</p>", []string{"a", "b"}},
		{"<p>a</p><textarea>KȾ</TextArea><p>b</p>", []string{"a", "b"}},
		{"<p>a</p><script>x</scrİpt><p>b</p>", []string{"a"}},
	} {
		if got := Parse(c.src).Paragraphs; !reflect.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) paragraphs = %q, want %q", c.src, got, c.want)
		}
	}
}

// TestParseLinearInRawTextElements: finding each raw-text element's end
// must not copy the rest of the document, so a page of thousands of
// scripts parses in one pass and allocates less than its own size.
func TestParseLinearInRawTextElements(t *testing.T) {
	src := strings.Repeat("<script>x</script>", 4000) + "<p>Hello World</p>"
	if got := Parse(src).Paragraphs; !reflect.DeepEqual(got, []string{"Hello World"}) {
		t.Fatalf("paragraphs = %q", got)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = Parse(src)
		}
	})
	if per := res.AllocedBytesPerOp(); per > int64(len(src)) {
		t.Fatalf("Parse allocates %d B on a %d B document", per, len(src))
	}
}

func TestPageHrefRoundTrip(t *testing.T) {
	for _, id := range []corpus.PageID{0, 1, 12345, math.MaxInt} {
		if got, want := PageHref(id), fmt.Sprintf("/page/%d.html", id); got != want {
			t.Errorf("PageHref(%d) = %q, want %q", id, got, want)
		}
		got, ok := ParseHref(PageHref(id))
		if !ok || got != id {
			t.Errorf("round trip %d -> %d, %v", id, got, ok)
		}
	}
	for _, href := range []string{"", "/page/.html", "/page/x.html", "http://x/", "/page/1.htm"} {
		if _, ok := ParseHref(href); ok {
			t.Errorf("ParseHref(%q) unexpectedly ok", href)
		}
	}
}

func TestRenderParsePageRoundTrip(t *testing.T) {
	tok := &textproc.Tokenizer{}
	orig := &corpus.Page{
		ID:     42,
		Entity: 7,
		Title:  "Marc Snir research",
		Links:  []corpus.PageID{3, 99},
		Paras: []corpus.Paragraph{
			{Text: "He conducts research on parallel & hpc systems.", Aspect: "RESEARCH"},
			{Text: "Visit him at Siebel Center, U Illinois.", Aspect: ""},
			{Text: "He won the <best paper> award.", Aspect: "AWARD"},
		},
	}
	for i := range orig.Paras {
		orig.Paras[i].Tokens = tok.Tokenize(orig.Paras[i].Text)
	}

	rendered := RenderPage(orig)
	got := ParsePage(rendered, 0, tok)

	if got.ID != orig.ID || got.Entity != orig.Entity || got.Title != orig.Title {
		t.Fatalf("identity: got %d/%d/%q", got.ID, got.Entity, got.Title)
	}
	if !reflect.DeepEqual(got.Links, orig.Links) {
		t.Errorf("links = %v, want %v", got.Links, orig.Links)
	}
	if len(got.Paras) != len(orig.Paras) {
		t.Fatalf("paragraph count = %d, want %d: %q", len(got.Paras), len(orig.Paras), rendered)
	}
	for i := range orig.Paras {
		if got.Paras[i].Text != orig.Paras[i].Text {
			t.Errorf("para %d text = %q, want %q", i, got.Paras[i].Text, orig.Paras[i].Text)
		}
		if got.Paras[i].Aspect != orig.Paras[i].Aspect {
			t.Errorf("para %d aspect = %q, want %q", i, got.Paras[i].Aspect, orig.Paras[i].Aspect)
		}
		if !reflect.DeepEqual(got.ParaTokens(i), orig.ParaTokens(i)) {
			t.Errorf("para %d tokens differ", i)
		}
	}
}

// TestRenderParseQuick fuzzes the render→parse round trip with random
// printable paragraph texts: every already-normalized text must survive.
func TestRenderParseQuick(t *testing.T) {
	tok := &textproc.Tokenizer{}
	rng := rand.New(rand.NewPCG(1, 2))
	// Alphabet intentionally includes HTML-significant characters.
	const alphabet = "abc XYZ 09.&<>\"'=/"

	gen := func() string {
		n := 1 + rng.IntN(40)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.IntN(len(alphabet))])
		}
		return normalizeSpace(b.String())
	}

	f := func() bool {
		text := gen()
		if text == "" {
			return true
		}
		p := &corpus.Page{ID: 1, Entity: 1, Title: "t",
			Paras: []corpus.Paragraph{{Text: text, Aspect: "A"}}}
		p.Paras[0].Tokens = tok.Tokenize(text)
		got := ParsePage(RenderPage(p), 1, tok)
		return len(got.Paras) == 1 && got.Paras[0].Text == text &&
			got.Paras[0].Aspect == "A"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeSpace(t *testing.T) {
	cases := map[string]string{
		"":                   "",
		"  a  b  ":           "a b",
		"a\n\tb\r\nc":        "a b c",
		"x":                  "x",
		" \t\n ":             "",
		"\f":                 "",
		"a\u00a0 b":          "a b",
		"one  two three":     "one two three",
		" lead":              "lead",
		"trail ":             "trail",
		"tab\tsep":           "tab sep",
		"a\u00a0b":           "a b",
		"\u00a0 \u00a0":      "",
		"café au lait":       "café au lait",
		"naïve  \n text ":    "naïve text",
		"x \u00a0 y\f":       "x y",
		"already normalized": "already normalized",
	}
	for in, want := range cases {
		if got := normalizeSpace(in); got != want {
			t.Errorf("normalizeSpace(%q) = %q, want %q", in, got, want)
		}
		if got := normalizeSpaceReference(in); got != want {
			t.Errorf("normalizeSpaceReference(%q) = %q, want %q", in, got, want)
		}
	}
	// The byte pass's answers cost nothing: normalized ASCII is the input
	// itself, whitespace alone the empty string.
	for _, in := range []string{"already normalized text", "x", "\n\t  \r"} {
		if n := testing.AllocsPerRun(10, func() { _ = normalizeSpace(in) }); n != 0 {
			t.Errorf("normalizeSpace(%q) allocates %v times", in, n)
		}
	}
	if in := "already normalized"; unsafe.StringData(normalizeSpace(in)) != unsafe.StringData(in) {
		t.Error("normalized input was copied")
	}
}

// TestNormalizeSpaceMatchesReference holds the byte pass to the rune loop
// on random strings over every whitespace byte, the no-break space and
// multi-byte letters.
func TestNormalizeSpaceMatchesReference(t *testing.T) {
	pieces := []string{"a", "Z", "0", ".", " ", " ", "  ", "\t", "\n", "\r", "\f", " ", "é", "–", "&", "<"}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.IntN(12); n > 0; n-- {
			b.WriteString(pieces[rng.IntN(len(pieces))])
		}
		s := b.String()
		if got, want := normalizeSpace(s), normalizeSpaceReference(s); got != want {
			t.Fatalf("normalizeSpace(%q) = %q, reference %q", s, got, want)
		}
	}
}

// FuzzParsePage feeds ParsePage network bytes. Any input: ParsePage must
// not panic, nor on any prefix of a rendered page (the truncations a
// dropped connection leaves). A page built from the input: RenderPage must
// write the reference renderer's bytes, and ParsePage must give back its
// ID, entity, title, aspects, paragraph texts and paragraph tokens.
func FuzzParsePage(f *testing.F) {
	tok := &textproc.Tokenizer{Lexicon: textproc.NewLexicon([]string{"data mining", "parallel computing"})}
	f.Add([]byte(`<!DOCTYPE html><html><head><title>Marc Snir</title><meta name="author" content="gen"><style>p{color:red}</style></head><body><h1>Heading</h1><p>First paragraph.</p><div>Third in a div with <b>bold</b> text.</div></body></html>`))
	f.Add([]byte(`<body><p>See <a href="/page/12.html">twelve</a> and <a href="http://other.example.com/">offsite</a>.</p></body>`))
	f.Add([]byte(`<body><p data-aspect="RESEARCH" data-x="1">a</p><p>b</p><script>drop me</script></body>`))
	for _, src := range []string{"", "<", "<<<>>>", "<p", "<title>no end", "</unopened></p>", "<a href=>x</a>", "&#x41;&bogus;&#0;&#xffffffff;",
		"<p>a</p><script>ȺȺȺ</script><p>b</p>", "<script>" + strings.Repeat("Ⱥ", 20) + "</script><p>b</p>",
		"<style>Ⱦ</STYLE><p>İ K</p><script>x</scrİpt>", "<noscript>K</noscript><textarea>ȺȾ</textarea>"} {
		f.Add([]byte(src))
	}
	rendered := RenderPage(&corpus.Page{ID: 42, Entity: 7, Title: "Marc Snir research", Links: []corpus.PageID{3, 99},
		Paras: []corpus.Paragraph{{Text: "He works on data mining & parallel computing.", Aspect: "RESEARCH"}, {Text: "Siebel Center, U Illinois."}}})
	for _, cut := range []int{len(rendered) / 3, len(rendered) / 2, len(rendered) - 20, len(rendered)} {
		f.Add([]byte(rendered[:cut]))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		_ = ParsePage(string(raw), -1, tok)

		orig := pageFrom(raw)
		doc := RenderPage(orig)
		if want := renderPageReference(orig); doc != want {
			t.Fatalf("RenderPage\n%q\nreference\n%q", doc, want)
		}
		if len(raw) > 0 {
			_ = ParsePage(doc[:int(raw[0])*len(doc)/256], -1, tok)
		}
		got := ParsePage(doc, -1, tok)
		if got.ID != orig.ID || got.Entity != orig.Entity || got.Title != orig.Title {
			t.Fatalf("page %d/%d %q came back as %d/%d %q", orig.ID, orig.Entity, orig.Title, got.ID, got.Entity, got.Title)
		}
		if len(got.Paras) != len(orig.Paras) {
			t.Fatalf("%d paragraphs came back as %d: %q", len(orig.Paras), len(got.Paras), doc)
		}
		for i := range orig.Paras {
			o, g := &orig.Paras[i], &got.Paras[i]
			if g.Text != o.Text || g.Aspect != o.Aspect {
				t.Fatalf("paragraph %d %q/%q came back as %q/%q", i, o.Text, o.Aspect, g.Text, g.Aspect)
			}
			if want, gt := tok.Tokenize(o.Text), got.ParaTokens(i); len(gt)+len(want) > 0 && !reflect.DeepEqual(gt, want) {
				t.Fatalf("paragraph %d tokens %q, want %q", i, gt, want)
			}
		}
	})
}

// pageFrom builds a page from fuzz bytes: an ID, entity and title from the
// first bytes, then paragraphs of text over an alphabet holding HTML's
// significant characters, whitespace and multi-byte letters, each
// normalized — what a parsed page's text always is — and dropped when
// Parse would drop it (empty, or the nav block's prefix).
func pageFrom(raw []byte) *corpus.Page {
	const alphabet = "ab XY 09.&<>\"'=/;#-@"
	extra := []string{"é", " ", "&amp;", "data mining", "related page ", "\t"}
	text := func(bs []byte) string {
		var b strings.Builder
		for _, c := range bs {
			if c >= 0xf0 {
				b.WriteString(extra[int(c)%len(extra)])
			} else {
				b.WriteByte(alphabet[int(c)%len(alphabet)])
			}
		}
		return normalizeSpaceReference(b.String())
	}
	p := &corpus.Page{}
	if len(raw) >= 3 {
		p.ID, p.Entity = corpus.PageID(int(raw[0])<<8|int(raw[1])), corpus.EntityID(raw[2])
		p.Title = text(raw[2:min(len(raw), 6)])
		raw = raw[3:]
	}
	for len(raw) > 0 {
		n := min(1+int(raw[0])%24, len(raw))
		t := text(raw[1:n])
		raw = raw[n:]
		if t == "" || strings.HasPrefix(t, "related page ") {
			continue
		}
		var aspect corpus.Aspect
		if n%3 == 0 {
			aspect = "A"
		}
		p.Paras = append(p.Paras, corpus.Paragraph{Text: t, Aspect: aspect})
	}
	return p
}
