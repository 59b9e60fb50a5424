package html

import (
	"strconv"
	"strings"
)

// namedEntities covers the named character references that occur in
// practice in the documents this pipeline produces or ingests. Unknown
// references pass through verbatim (browser behavior for bare '&').
var namedEntities = map[string]rune{
	"amp":    '&',
	"lt":     '<',
	"gt":     '>',
	"quot":   '"',
	"apos":   '\'',
	"nbsp":   '\u00a0',
	"copy":   '©',
	"reg":    '®',
	"trade":  '™',
	"mdash":  '—',
	"ndash":  '–',
	"hellip": '…',
	"lsquo":  '‘',
	"rsquo":  '’',
	"ldquo":  '“',
	"rdquo":  '”',
	"middot": '·',
	"bull":   '•',
	"deg":    '°',
	"frac12": '½',
	"times":  '×',
	"eacute": 'é',
	"egrave": 'è',
	"uuml":   'ü',
	"ouml":   'ö',
	"auml":   'ä',
	"ccedil": 'ç',
	"ntilde": 'ñ',
}

// DecodeEntities replaces character references (&amp;, &#65;, &#x41;) with
// their characters. Malformed references are left untouched.
func DecodeEntities(s string) string {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	b.WriteString(s[:amp])
	s = s[amp:]
	for len(s) > 0 {
		if s[0] != '&' {
			next := strings.IndexByte(s, '&')
			if next < 0 {
				b.WriteString(s)
				break
			}
			b.WriteString(s[:next])
			s = s[next:]
			continue
		}
		r, n := decodeOneEntity(s)
		if n == 0 {
			b.WriteByte('&')
			s = s[1:]
			continue
		}
		b.WriteRune(r)
		s = s[n:]
	}
	return b.String()
}

// decodeOneEntity decodes the reference at the start of s (which begins
// with '&'); returns the rune and the number of bytes consumed, or 0 if
// the text is not a valid reference.
func decodeOneEntity(s string) (rune, int) {
	end := strings.IndexByte(s, ';')
	if end < 0 || end == 1 || end > 12 {
		return 0, 0
	}
	body := s[1:end]
	if body[0] == '#' {
		num := body[1:]
		base := 10
		if len(num) > 1 && (num[0] == 'x' || num[0] == 'X') {
			base = 16
			num = num[1:]
		}
		v, err := strconv.ParseUint(num, base, 32)
		if err != nil || v == 0 || v > 0x10ffff {
			return 0, 0
		}
		return rune(v), end + 1
	}
	if r, ok := namedEntities[body]; ok {
		return r, end + 1
	}
	return 0, 0
}

// EscapeText escapes character data for inclusion in an HTML text node.
func EscapeText(s string) string {
	if !needsEscape(s, false) {
		return s
	}
	return string(appendEscaped(make([]byte, 0, len(s)+8), s, false))
}

// EscapeAttr escapes a string for inclusion in a double-quoted attribute.
func EscapeAttr(s string) string {
	if !needsEscape(s, true) {
		return s
	}
	return string(appendEscaped(make([]byte, 0, len(s)+8), s, true))
}

// needsEscape reports whether appendEscaped would rewrite a byte of s. One
// vectorized IndexByte per character is far cheaper than a byte loop over
// text that almost never holds any of them.
func needsEscape(s string, attr bool) bool {
	return strings.IndexByte(s, '&') >= 0 || strings.IndexByte(s, '<') >= 0 ||
		strings.IndexByte(s, '>') >= 0 || attr && strings.IndexByte(s, '"') >= 0
}

// appendEscaped appends s to dst with &, < and > escaped, and " too when
// attr is set (the value goes inside a double-quoted attribute).
func appendEscaped(dst []byte, s string, attr bool) []byte {
	if !needsEscape(s, attr) {
		return append(dst, s...)
	}
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			if !attr {
				continue
			}
			esc = "&quot;"
		default:
			continue
		}
		dst = append(append(dst, s[last:i]...), esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}
