package html

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

func lexAll(t *testing.T, src string) []Token {
	t.Helper()
	lx := NewLexer(src)
	var out []Token
	for {
		tok, ok := lx.Next()
		if !ok {
			return out
		}
		out = append(out, tok)
	}
}

func TestLexerBasicTags(t *testing.T) {
	toks := lexAll(t, `<p>hello</p>`)
	want := []Token{
		{Type: StartTagToken, Data: "p"},
		{Type: TextToken, Data: "hello"},
		{Type: EndTagToken, Data: "p"},
	}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("got %+v, want %+v", toks, want)
	}
}

func TestLexerAttributes(t *testing.T) {
	toks := lexAll(t, `<a href="x.html" class='big' data-n=3 disabled>t</a>`)
	if len(toks) != 3 {
		t.Fatalf("want 3 tokens, got %d: %+v", len(toks), toks)
	}
	a := toks[0]
	if a.Type != StartTagToken || a.Data != "a" {
		t.Fatalf("bad start tag: %+v", a)
	}
	wantAttrs := []Attribute{
		{Key: "href", Val: "x.html"},
		{Key: "class", Val: "big"},
		{Key: "data-n", Val: "3"},
		{Key: "disabled", Val: ""},
	}
	if !reflect.DeepEqual(a.Attrs, wantAttrs) {
		t.Fatalf("attrs %+v, want %+v", a.Attrs, wantAttrs)
	}
}

// TestLexerAttrsOwned: Next hands out attribute slices the caller owns. A
// token kept while the lexer moves on still holds its own attributes, though
// Parse reuses one buffer for them.
func TestLexerAttrsOwned(t *testing.T) {
	toks := lexAll(t, `<p data-aspect="A" id=1>x</p><p data-aspect="B">y</p><a href="/page/3.html" rel=n>z</a>`)
	want := [][]Attribute{
		{{Key: "data-aspect", Val: "A"}, {Key: "id", Val: "1"}},
		{{Key: "data-aspect", Val: "B"}},
		{{Key: "href", Val: "/page/3.html"}, {Key: "rel", Val: "n"}},
	}
	var got [][]Attribute
	for _, tok := range toks {
		if tok.Type == StartTagToken {
			got = append(got, tok.Attrs)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kept attrs %+v, want %+v", got, want)
	}
}

func TestLexerAttrLookup(t *testing.T) {
	toks := lexAll(t, `<meta name="k" content="v">`)
	if v, ok := toks[0].Attr("content"); !ok || v != "v" {
		t.Fatalf("Attr(content) = %q, %v", v, ok)
	}
	if _, ok := toks[0].Attr("missing"); ok {
		t.Fatal("Attr(missing) should not be found")
	}
}

func TestLexerSelfClosing(t *testing.T) {
	toks := lexAll(t, `<br/><hr />`)
	if toks[0].Type != SelfClosingTagToken || toks[0].Data != "br" {
		t.Fatalf("br: %+v", toks[0])
	}
	if toks[1].Type != SelfClosingTagToken || toks[1].Data != "hr" {
		t.Fatalf("hr: %+v", toks[1])
	}
}

func TestLexerUppercaseNamesLowered(t *testing.T) {
	toks := lexAll(t, `<DIV CLASS="A">x</DIV>`)
	if toks[0].Data != "div" || toks[2].Data != "div" {
		t.Fatalf("names not lowercased: %+v", toks)
	}
	if toks[0].Attrs[0].Key != "class" {
		t.Fatalf("attr key not lowercased: %+v", toks[0].Attrs)
	}
}

func TestLexerComment(t *testing.T) {
	toks := lexAll(t, `a<!-- hidden <p> -->b`)
	want := []Token{
		{Type: TextToken, Data: "a"},
		{Type: CommentToken, Data: " hidden <p> "},
		{Type: TextToken, Data: "b"},
	}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("got %+v", toks)
	}
}

func TestLexerDoctype(t *testing.T) {
	toks := lexAll(t, `<!DOCTYPE html><html></html>`)
	if toks[0].Type != DoctypeToken || toks[0].Data != "DOCTYPE html" {
		t.Fatalf("doctype: %+v", toks[0])
	}
}

func TestLexerScriptRawText(t *testing.T) {
	toks := lexAll(t, `<script>if (a<b) { x="<p>"; }</script>after`)
	want := []Token{
		{Type: StartTagToken, Data: "script"},
		{Type: TextToken, Data: `if (a<b) { x="<p>"; }`},
		{Type: EndTagToken, Data: "script"},
		{Type: TextToken, Data: "after"},
	}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("got %+v", toks)
	}
}

func TestLexerUnterminatedScript(t *testing.T) {
	toks := lexAll(t, `<script>var x = 1;`)
	if len(toks) != 2 || toks[1].Type != TextToken || toks[1].Data != "var x = 1;" {
		t.Fatalf("got %+v", toks)
	}
}

func TestLexerLiteralLessThan(t *testing.T) {
	toks := lexAll(t, `3 < 5 and <1 is text`)
	// All of it should come back as text (the "<1" is not a tag).
	var text string
	for _, tok := range toks {
		if tok.Type != TextToken {
			t.Fatalf("unexpected non-text token %+v", tok)
		}
		text += tok.Data
	}
	if text != "3 < 5 and <1 is text" {
		t.Fatalf("text = %q", text)
	}
}

func TestLexerEntitiesInTextAndAttrs(t *testing.T) {
	toks := lexAll(t, `<a title="a &amp; b">x &lt; y &#65; &#x42;</a>`)
	if v, _ := toks[0].Attr("title"); v != "a & b" {
		t.Fatalf("attr entity: %q", v)
	}
	if toks[1].Data != "x < y A B" {
		t.Fatalf("text entity: %q", toks[1].Data)
	}
}

func TestLexerTruncatedInputs(t *testing.T) {
	// None of these should panic or loop; content varies.
	for _, src := range []string{
		"<", "<a", "<a href=", `<a href="x`, "</", "</p", "<!--", "<!doctype",
		"<a ", "<a /", "text<", "&amp", "&", "&#;", "&#x;",
	} {
		lexAll(t, src) // must terminate
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := map[string]string{
		"plain":            "plain",
		"&amp;&lt;&gt;":    "&<>",
		"&quot;x&apos;":    `"x'`,
		"&#65;&#x41;":      "AA",
		"&bogus;":          "&bogus;",
		"&amp":             "&amp",
		"a &amp; b &amp c": "a & b &amp c",
		"&nbsp;":           "\u00a0",
		"&#0;":             "&#0;",
	}
	for in, want := range cases {
		if got := DecodeEntities(in); got != want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	for _, s := range []string{
		"plain", "a < b & c > d", `quotes " and ' here`, "unicode é ü",
	} {
		if got := DecodeEntities(EscapeText(s)); got != s {
			t.Errorf("text round trip %q -> %q", s, got)
		}
		if got := DecodeEntities(EscapeAttr(s)); got != s {
			t.Errorf("attr round trip %q -> %q", s, got)
		}
	}
}

func TestTokenTypeString(t *testing.T) {
	names := map[TokenType]string{
		TextToken: "text", StartTagToken: "start", EndTagToken: "end",
		SelfClosingTagToken: "self-closing", CommentToken: "comment",
		DoctypeToken: "doctype", TokenType(200): "unknown",
	}
	for tt, want := range names {
		if tt.String() != want {
			t.Errorf("%d.String() = %q, want %q", tt, tt.String(), want)
		}
	}
}

// TestLexerNeverPanicsOnRandomBytes feeds random byte soup to the lexer:
// it must always terminate without panicking, whatever the input.
func TestLexerNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 100))
	const alphabet = `<>/='"!-abc &#;xA `
	for trial := 0; trial < 500; trial++ {
		n := rng.IntN(120)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.IntN(len(alphabet))]
		}
		lx := NewLexer(string(b))
		for steps := 0; ; steps++ {
			if _, ok := lx.Next(); !ok {
				break
			}
			if steps > 10*n+16 {
				t.Fatalf("lexer did not terminate on %q", b)
			}
		}
		_ = Parse(string(b)) // the segmenter must survive too
	}
}
