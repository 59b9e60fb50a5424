package core

import (
	"l2q/internal/corpus"
	"l2q/internal/textproc"
)

// gramMap maps gram keys to values: open addressing with linear probing
// over a power-of-two table kept at most half full, the key compared in
// the slot itself — a lookup costs one hash and, typically, one cache
// line, where a Go map of 12-byte keys costs a control-word group and a
// slot group. The zero V marks an empty slot, so a stored value is never
// zero. Its layout depends on term ids, so nothing iterates it for output.
type gramMap[V comparable] struct {
	slots []gramSlot[V]
	shift uint // 64 − log2(len(slots))
	n     int
}

type gramSlot[V comparable] struct {
	key textproc.GramKey
	val V
}

// newGramMap returns a map with room for n keys before it grows.
func newGramMap[V comparable](n int) gramMap[V] {
	size, shift := 16, uint(60)
	for size < 2*n {
		size, shift = 2*size, shift-1
	}
	return gramMap[V]{slots: make([]gramSlot[V], size), shift: shift}
}

// home is key's first slot: the key's ids mixed by two multiplications,
// the result's top bits.
func (m *gramMap[V]) home(k textproc.GramKey) int {
	h := (uint64(k[0]) | uint64(k[1])<<32) * 0x9e3779b97f4a7c15
	h = (h ^ uint64(k[2])) * 0xbf58476d1ce4e5b9
	return int(h >> m.shift)
}

// get returns key's value, the zero V when absent.
func (m *gramMap[V]) get(k textproc.GramKey) V {
	var zero V
	if len(m.slots) == 0 {
		return zero
	}
	mask := len(m.slots) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.val == zero || s.key == k {
			return s.val
		}
	}
}

// put maps key, which the map does not hold, to the non-zero v.
func (m *gramMap[V]) put(k textproc.GramKey, v V) {
	if 2*(m.n+1) > len(m.slots) {
		var zero V
		grown := newGramMap[V](max(m.n+1, len(m.slots)))
		for _, s := range m.slots {
			if s.val != zero {
				grown.place(s)
			}
		}
		grown.n = m.n
		*m = grown
	}
	m.place(gramSlot[V]{key: k, val: v})
	m.n++
}

// place stores s in the first free slot of its probe sequence.
func (m *gramMap[V]) place(s gramSlot[V]) {
	var zero V
	mask := len(m.slots) - 1
	i := m.home(s.key)
	for m.slots[i].val != zero {
		i = (i + 1) & mask
	}
	m.slots[i] = s
}

// keyCheck decides when a page's gram keys may stand for strings: when
// every gram of the page is canonical — its tokens are tok's tokenization
// of its own string — since then two grams of one string have one key.
// The domain count and a session's candidate pool both ask it of each
// page before they tell the page's grams apart by key alone; a page it
// refuses has its grams looked up by their strings.
type keyCheck struct {
	tok *textproc.Tokenizer
}

// keyed reports whether tok made p's tokens and round-trips
// (textproc.Tokenizer.RoundTrips), so every gram within one of p's
// paragraphs is canonical.
func (k keyCheck) keyed(p *corpus.Page) bool {
	return k.tok.RoundTrips() && p.Tokenizer() == k.tok
}

// seams reports whether every gram across a paragraph end of a keyed page
// is canonical, toks being the page's token stream and ends where its
// paragraphs end in it. A gram across an end joins the tokens of two
// texts, which tok need not have made of their join, so tok is asked
// (Tokenizer.Canonical) of the widest run a gram can take across each
// end, MaxGramLen−1 tokens either side. That answers for every gram
// inside the run: the phrase merge is greedy, so a run that merges back
// to itself chose each of its tokens as the longest phrase its words
// allowed, and a shorter run, from one of its tokens to another, allows
// no longer one (FuzzGramTokensRoundTrip).
func (k keyCheck) seams(toks []textproc.Token, ends []int32) bool {
	for _, e := range ends {
		e := int(e)
		if 0 < e && e < len(toks) &&
			!k.tok.Canonical(toks[max(0, e-textproc.MaxGramLen+1):min(len(toks), e+textproc.MaxGramLen-1)]) {
			return false
		}
	}
	return true
}
