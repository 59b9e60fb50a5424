package synth

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"l2q/internal/corpus"
)

// Profile is one entity's private attribute assignment: its own topics,
// venues, features, and so on. Profiles are the source of entity variation
// (§IV-A): two entities share the sentence grammar but not the slot values.
type Profile struct {
	Entity *corpus.Entity
	// Fields maps slot name → the entity's values for that slot
	// ("topic" → {"hpc", "parallel computing"}).
	Fields map[string][]string
}

// slotKind is how a {placeholder} draws its value: from a pool of strings
// (an entity's profile field, else a domain-wide pool) or as a number.
type slotKind uint8

const (
	slotPool slotKind = iota
	slotInt           // lo + a draw below n
	slotUniqueID
	slotMoney
)

// slot is one parsed {placeholder}. A key ending in a digit ("topic2")
// names its base slot ("topic") and asks for a value distinct from the
// base slot's last pick within the same sentence when possible.
type slot struct {
	kind     slotKind
	id       int // slotPool: the base slot's id
	lo, n    int // slotInt
	distinct bool
	key      string // as written, for the unknown-slot panic
}

// segment is a template's literal text up to a placeholder, and the
// placeholder.
type segment struct {
	lit  string
	slot slot
}

// template is a sentence template parsed once: its segments, then the
// literal text after the last placeholder. A brace without its closing
// partner is literal text.
type template struct {
	segs []segment
	tail string
}

// slotNames gives every pool slot a templates reference an id, in order
// of first reference.
type slotNames struct {
	ids   map[string]int
	names []string
}

// parse splits tmpl into literal and slot segments.
func (sn *slotNames) parse(tmpl string) template {
	var t template
	i := 0
	for {
		open := strings.IndexByte(tmpl[i:], '{')
		if open < 0 {
			break
		}
		end := strings.IndexByte(tmpl[i+open:], '}')
		if end < 0 {
			break
		}
		key := tmpl[i+open+1 : i+open+end]
		t.segs = append(t.segs, segment{lit: tmpl[i : i+open], slot: sn.slot(key)})
		i += open + end + 1
	}
	t.tail = tmpl[i:]
	return t
}

func (sn *slotNames) parseAll(tmpls []string) []template {
	out := make([]template, len(tmpls))
	for i, s := range tmpls {
		out[i] = sn.parse(s)
	}
	return out
}

// slot resolves a placeholder key.
func (sn *slotNames) slot(key string) slot {
	s := slot{key: key}
	base := key
	if n := len(key); n > 0 && key[n-1] >= '2' && key[n-1] <= '9' {
		base, s.distinct = key[:n-1], true
	}
	switch base {
	case "year":
		s.kind, s.lo, s.n = slotInt, 1980, 36
	case "rating":
		s.kind, s.lo, s.n = slotInt, 6, 4
	case "number":
		s.kind, s.lo, s.n = slotInt, 1, 500
	case "uniqueid":
		s.kind = slotUniqueID
	case "money":
		s.kind = slotMoney
	default:
		id, ok := sn.ids[base]
		if !ok {
			id = len(sn.names)
			sn.ids[base] = id
			sn.names = append(sn.names, base)
		}
		s.id = id
	}
	return s
}

// filler draws slot values. It holds the current entity's pools by slot
// id and the per-sentence distinctness state; with build set it appends
// each value to buf, without it it only makes the draws — the same draws,
// distinctness comparisons included.
type filler struct {
	rng   *rand.Rand
	pools [][]string // slot id → the entity's field, else the global pool
	last  []string   // slot id → last value drawn in the sentence
	buf   []byte
	build bool
}

// setProfile binds the pools of the entity whose pages come next.
func (f *filler) setProfile(p *Profile, sn *slotNames, global map[string][]string) {
	f.pools = f.pools[:0]
	for _, name := range sn.names {
		pool := p.Fields[name]
		if pool == nil {
			pool = global[name]
		}
		f.pools = append(f.pools, pool)
	}
	if len(f.last) < len(sn.names) {
		f.last = make([]string, len(sn.names))
	}
}

// sentence expands one template, starting a new sentence's distinctness
// state.
func (f *filler) sentence(t *template) {
	clear(f.last)
	for i := range t.segs {
		if f.build {
			f.buf = append(f.buf, t.segs[i].lit...)
		}
		f.fill(&t.segs[i].slot)
	}
	if f.build {
		f.buf = append(f.buf, t.tail...)
	}
}

// fill draws one slot's value. An unknown pool slot panics: a grammar
// referencing a missing slot is a programmer error that tests should
// catch immediately.
func (f *filler) fill(s *slot) {
	switch s.kind {
	case slotInt:
		v := s.lo + f.rng.IntN(s.n)
		if f.build {
			f.buf = strconv.AppendInt(f.buf, int64(v), 10)
		}
	case slotUniqueID:
		// A page-local junk token (document ids, cache-buster strings).
		// On the real web such tokens occur on a single page only, so a
		// query containing one retrieves nothing new; they exist to
		// make unguided query selection (RND) pay a realistic price.
		v := f.rng.IntN(1 << 24)
		if f.build {
			f.buf = append(f.buf, 'x')
			for shift := 20; shift >= 0; shift -= 4 {
				f.buf = append(f.buf, "0123456789abcdef"[v>>shift&0xf])
			}
		}
	case slotMoney:
		dollars := 18 + f.rng.IntN(60)
		cents := f.rng.IntN(10) * 100
		if f.build {
			f.buf = append(f.buf, '$')
			f.buf = strconv.AppendInt(f.buf, int64(dollars), 10)
			f.buf = append(f.buf, ',')
			f.buf = appendPad3(f.buf, cents)
		}
	default:
		pool := f.pools[s.id]
		if len(pool) == 0 {
			panic(fmt.Sprintf("synth: grammar references unknown slot %q", s.key))
		}
		v := pool[f.rng.IntN(len(pool))]
		if s.distinct && len(pool) > 1 {
			for tries := 0; tries < 4 && v == f.last[s.id]; tries++ {
				v = pool[f.rng.IntN(len(pool))]
			}
		}
		f.last[s.id] = v
		if f.build {
			f.buf = append(f.buf, v...)
		}
	}
}

// appendPad3 appends 0 ≤ v < 1000 as three digits ("%03d").
func appendPad3(dst []byte, v int) []byte {
	return append(dst, byte('0'+v/100), byte('0'+v/10%10), byte('0'+v%10))
}

// sampleDistinct draws k distinct elements (or all if k ≥ len).
func sampleDistinct[T any](rng *rand.Rand, xs []T, k int) []T {
	if k >= len(xs) {
		out := make([]T, len(xs))
		copy(out, xs)
		return out
	}
	idx := rng.Perm(len(xs))[:k]
	out := make([]T, 0, k)
	for _, i := range idx {
		out = append(out, xs[i])
	}
	return out
}

// weightedIndex samples an index proportional to weights (must be positive).
func weightedIndex(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return i
		}
	}
	return len(weights) - 1
}
