// Package html is a small, dependency-free HTML substrate: a forgiving
// tokenizer, a block-level paragraph segmenter, and a renderer that turns
// corpus pages into HTML documents.
//
// The paper harvests real web pages and segments them into paragraphs with
// jsoup (§VI-A, footnote 4); the classifiers and the evaluation both run at
// paragraph granularity. This package is our jsoup substitute: the
// synthetic web is rendered to genuine HTML (render.go), and harvested
// documents are parsed and segmented back into paragraphs (segment.go).
// Keeping a real HTML boundary in the pipeline — rather than passing
// in-memory structs around — means the ingestion path is exercised exactly
// as it would be against live pages.
//
// The tokenizer is deliberately browser-like in spirit: it never fails on
// malformed input, it treats unknown constructs as text, and it handles
// the raw-text elements (script, style) whose content must not be
// interpreted as markup.
package html

import "strings"

// TokenType discriminates lexer tokens.
type TokenType uint8

// Token types produced by the Lexer.
const (
	// TextToken is a run of character data (entities already decoded).
	TextToken TokenType = iota
	// StartTagToken is an opening tag like <p class="x">.
	StartTagToken
	// EndTagToken is a closing tag like </p>.
	EndTagToken
	// SelfClosingTagToken is a void-style tag like <br/>.
	SelfClosingTagToken
	// CommentToken is a <!-- ... --> comment (Data holds the body).
	CommentToken
	// DoctypeToken is a <!DOCTYPE ...> or other <!...> declaration.
	DoctypeToken
)

func (t TokenType) String() string {
	switch t {
	case TextToken:
		return "text"
	case StartTagToken:
		return "start"
	case EndTagToken:
		return "end"
	case SelfClosingTagToken:
		return "self-closing"
	case CommentToken:
		return "comment"
	case DoctypeToken:
		return "doctype"
	}
	return "unknown"
}

// Attribute is one key/value pair on a start tag. Val is entity-decoded;
// valueless attributes have Val == "".
type Attribute struct {
	Key string
	Val string
}

// Token is one lexical unit of an HTML document. For tag tokens Data is
// the lowercased tag name; for text and comments it is the content.
type Token struct {
	Type  TokenType
	Data  string
	Attrs []Attribute
}

// Attr returns the value of the named attribute and whether it is present.
func (t *Token) Attr(key string) (string, bool) {
	for i := range t.Attrs {
		if t.Attrs[i].Key == key {
			return t.Attrs[i].Val, true
		}
	}
	return "", false
}

// isRawTextElement reports whether the element's content is not markup:
// everything up to the matching end tag is a single text token that the
// segmenter will then discard.
func isRawTextElement(name string) bool {
	switch name {
	case "script", "style", "noscript", "textarea":
		return true
	}
	return false
}

// Lexer tokenizes an HTML document. It never returns errors: malformed
// markup degrades to text, as in browsers. The zero value is not usable;
// construct with NewLexer.
type Lexer struct {
	src string
	pos int
	// pendingRaw is the raw-text element whose content the next Next call
	// must consume verbatim (set after emitting e.g. <script>).
	pendingRaw string
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token. The second result is false at end of input.
// The token's Attrs slice is the caller's: no later call writes to it.
func (l *Lexer) Next() (Token, bool) { return l.next(nil) }

// next is Next appending a start tag's attributes to attrs[:0]. A caller
// that passes back the previous token's Attrs reuses one buffer for the
// whole document, and so must be done with that token's attributes.
func (l *Lexer) next(attrs []Attribute) (Token, bool) {
	if l.pendingRaw != "" {
		tag := l.pendingRaw
		l.pendingRaw = ""
		if text, ok := l.rawText(tag); ok {
			return Token{Type: TextToken, Data: text}, true
		}
		// Fall through: no content before the end tag (or EOF).
	}
	if l.pos >= len(l.src) {
		return Token{}, false
	}
	if l.src[l.pos] != '<' {
		return l.text(), true
	}
	// A '<' only opens markup when followed by a letter, '/', '!' or '?';
	// otherwise it is literal text ("a < b").
	if l.pos+1 >= len(l.src) {
		l.pos++
		return Token{Type: TextToken, Data: "<"}, true
	}
	switch c := l.src[l.pos+1]; {
	case c == '!':
		return l.declaration(), true
	case c == '?':
		return l.processingInstruction(), true
	case c == '/':
		return l.endTag(), true
	case isTagNameStart(c):
		return l.startTag(attrs[:0]), true
	default:
		l.pos++
		return Token{Type: TextToken, Data: "<"}, true
	}
}

// text consumes character data up to the next markup-opening '<'.
func (l *Lexer) text() Token {
	start := l.pos
	for l.pos < len(l.src) {
		i := strings.IndexByte(l.src[l.pos:], '<')
		if i < 0 {
			l.pos = len(l.src)
			break
		}
		l.pos += i
		if l.pos+1 < len(l.src) {
			c := l.src[l.pos+1]
			if c == '!' || c == '?' || c == '/' || isTagNameStart(c) {
				break
			}
		}
		l.pos++ // literal '<'
	}
	return Token{Type: TextToken, Data: DecodeEntities(l.src[start:l.pos])}
}

// rawText consumes everything up to the next "</" + tag and returns it
// verbatim, leaving the end tag for the next call. Returns ok=false if the
// content is empty.
func (l *Lexer) rawText(tag string) (string, bool) {
	rest := l.src[l.pos:]
	idx := indexEndTag(rest, tag)
	if idx < 0 {
		idx = len(rest)
	}
	l.pos += idx
	return rest[:idx], idx > 0
}

// indexEndTag is the offset of the first "</" + tag in s, the tag matched
// ASCII case-insensitively in place (as the HTML spec matches end tags:
// "</SCRIPT" ends a script, "</scrİpt" does not), or -1. tag is lower-case
// letters, so OR-ing 0x20 into a byte folds exactly its upper-case twin.
func indexEndTag(s, tag string) int {
	for i := 0; ; i += 2 {
		j := strings.Index(s[i:], "</")
		if j < 0 {
			return -1
		}
		i += j
		rest := s[i+2:]
		if len(rest) < len(tag) {
			return -1
		}
		k := 0
		for k < len(tag) && rest[k]|0x20 == tag[k] {
			k++
		}
		if k == len(tag) {
			return i
		}
	}
}

// declaration consumes <!...> constructs: comments and doctypes.
func (l *Lexer) declaration() Token {
	if strings.HasPrefix(l.src[l.pos:], "<!--") {
		body := l.src[l.pos+4:]
		end := strings.Index(body, "-->")
		if end < 0 {
			l.pos = len(l.src)
			return Token{Type: CommentToken, Data: body}
		}
		l.pos += 4 + end + 3
		return Token{Type: CommentToken, Data: body[:end]}
	}
	start := l.pos + 2
	end := strings.IndexByte(l.src[start:], '>')
	if end < 0 {
		data := l.src[start:]
		l.pos = len(l.src)
		return Token{Type: DoctypeToken, Data: strings.TrimSpace(data)}
	}
	data := l.src[start : start+end]
	l.pos = start + end + 1
	return Token{Type: DoctypeToken, Data: strings.TrimSpace(data)}
}

// processingInstruction consumes <? ... > (treated as a doctype-like
// declaration; HTML5 parsers emit these as bogus comments).
func (l *Lexer) processingInstruction() Token {
	start := l.pos + 2
	end := strings.IndexByte(l.src[start:], '>')
	if end < 0 {
		data := l.src[start:]
		l.pos = len(l.src)
		return Token{Type: CommentToken, Data: data}
	}
	data := l.src[start : start+end]
	l.pos = start + end + 1
	return Token{Type: CommentToken, Data: data}
}

// endTag consumes </name ...>.
func (l *Lexer) endTag() Token {
	start := l.pos + 2
	end := strings.IndexByte(l.src[start:], '>')
	if end < 0 {
		name := strings.ToLower(strings.TrimSpace(l.src[start:]))
		l.pos = len(l.src)
		return Token{Type: EndTagToken, Data: name}
	}
	name := l.src[start : start+end]
	if i := strings.IndexAny(name, " \t\r\n/"); i >= 0 {
		name = name[:i]
	}
	l.pos = start + end + 1
	return Token{Type: EndTagToken, Data: strings.ToLower(name)}
}

// startTag consumes <name attrs...> including self-closing forms, appending
// the attributes to attrs, and arms raw-text mode for
// script/style/noscript/textarea.
func (l *Lexer) startTag(attrs []Attribute) Token {
	start := l.pos + 1
	i := start
	for i < len(l.src) && isTagNameChar(l.src[i]) {
		i++
	}
	name := strings.ToLower(l.src[start:i])
	tok := Token{Type: StartTagToken, Data: name, Attrs: attrs}

	for {
		for i < len(l.src) && isSpace(l.src[i]) {
			i++
		}
		if i >= len(l.src) {
			break
		}
		if l.src[i] == '>' {
			i++
			break
		}
		if l.src[i] == '/' {
			// Possible self-closing slash; only meaningful before '>'.
			j := i + 1
			for j < len(l.src) && isSpace(l.src[j]) {
				j++
			}
			if j < len(l.src) && l.src[j] == '>' {
				tok.Type = SelfClosingTagToken
				i = j + 1
				break
			}
			i++
			continue
		}
		var attr Attribute
		attr, i = l.attribute(i)
		if attr.Key != "" {
			tok.Attrs = append(tok.Attrs, attr)
		}
	}
	l.pos = i
	if tok.Type == StartTagToken && isRawTextElement(name) {
		l.pendingRaw = name
	}
	return tok
}

// attribute parses one attribute starting at i; returns the attribute and
// the next position.
func (l *Lexer) attribute(i int) (Attribute, int) {
	start := i
	for i < len(l.src) && !isSpace(l.src[i]) && l.src[i] != '=' && l.src[i] != '>' && l.src[i] != '/' {
		i++
	}
	key := strings.ToLower(l.src[start:i])
	for i < len(l.src) && isSpace(l.src[i]) {
		i++
	}
	if i >= len(l.src) || l.src[i] != '=' {
		return Attribute{Key: key}, i
	}
	i++ // consume '='
	for i < len(l.src) && isSpace(l.src[i]) {
		i++
	}
	if i >= len(l.src) {
		return Attribute{Key: key}, i
	}
	switch q := l.src[i]; q {
	case '"', '\'':
		i++
		vstart := i
		for i < len(l.src) && l.src[i] != q {
			i++
		}
		val := l.src[vstart:i]
		if i < len(l.src) {
			i++ // closing quote
		}
		return Attribute{Key: key, Val: DecodeEntities(val)}, i
	default:
		vstart := i
		for i < len(l.src) && !isSpace(l.src[i]) && l.src[i] != '>' {
			i++
		}
		return Attribute{Key: key, Val: DecodeEntities(l.src[vstart:i])}, i
	}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

func isTagNameStart(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isTagNameChar(c byte) bool {
	return isTagNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == ':'
}
