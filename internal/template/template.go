// Package template implements query templates (paper Def. 1): abstractions
// of queries in which each unit is either a literal word or a type from the
// type system. Templates are the bridge that carries utility knowledge
// across entities in the same domain (§IV-A): "hpc ijhpca" (Snir),
// "data mining tkde" (Yu) and "ai jmlr" (Ng) all abstract to
// "〈topic〉 〈venue〉", so evidence about any of them transfers to the others.
package template

import (
	"strings"

	"l2q/internal/textproc"
	"l2q/internal/types"
)

// Unit is one position of a template: a literal word or a type.
type Unit struct {
	Word string     // set when the unit is a literal word
	Type types.Type // set when the unit is a type
}

// IsType reports whether the unit is a type (vs. a literal word).
func (u Unit) IsType() bool { return u.Type != "" }

// render returns the unit's canonical string form.
func (u Unit) render() string {
	if u.IsType() {
		return u.Type.Render()
	}
	return u.Word
}

// Template is a sequence of units (Def. 1).
type Template struct {
	Units []Unit
}

// Key returns the canonical string identity of the template, e.g.
// "〈topic〉 research". Two templates are the same iff their keys match.
func (t Template) Key() string {
	parts := make([]string, len(t.Units))
	for i, u := range t.Units {
		parts[i] = u.render()
	}
	return strings.Join(parts, " ")
}

// NumTypeUnits counts the type (non-literal) units.
func (t Template) NumTypeUnits() int {
	n := 0
	for _, u := range t.Units {
		if u.IsType() {
			n++
		}
	}
	return n
}

// Abstracts reports whether the template abstracts the query (Def. 1):
// same length, literal units match exactly, and type units contain the
// query word according to the recognizer.
func (t Template) Abstracts(query []textproc.Token, rec types.Recognizer) bool {
	if len(query) != len(t.Units) {
		return false
	}
	for i, u := range t.Units {
		if !u.IsType() {
			if query[i] != u.Word {
				return false
			}
			continue
		}
		found := false
		for _, wt := range rec.TypesOf(query[i]) {
			if wt == u.Type {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// MaxPerQuery caps template enumeration per query; beyond this, the
// enumeration is cut deterministically (queries are ≤3 units and words
// rarely have >2 types, so the cap is a safety valve, not a tuning knob).
const MaxPerQuery = 32

// Enumerate returns every template that abstracts the query (Def. 1),
// excluding the degenerate all-literal template, which is just the query
// itself and generalizes nothing. Each token position may remain literal
// or be abstracted into any of its types; the result is the cross product,
// capped at MaxPerQuery, in deterministic order.
func Enumerate(query []textproc.Token, rec types.Recognizer) []Template {
	if len(query) == 0 {
		return nil
	}
	// Recognize every position first: most queries have no typed word at
	// all, and then there is nothing to enumerate (and nothing allocated —
	// queries are ≤3 units, so the per-position types fit the stack).
	var buf [4][]types.Type
	wordTypes := buf[:0]
	typed := false
	for _, w := range query {
		ts := rec.TypesOf(w)
		wordTypes = append(wordTypes, ts)
		typed = typed || len(ts) > 0
	}
	if !typed {
		return nil
	}
	options := make([][]Unit, len(query))
	for i, w := range query {
		opts := []Unit{{Word: w}}
		for _, wt := range wordTypes[i] {
			opts = append(opts, Unit{Type: wt})
		}
		options[i] = opts
	}

	var out []Template
	units := make([]Unit, len(query))
	var walk func(pos, typed int)
	walk = func(pos, typed int) {
		if len(out) >= MaxPerQuery {
			return
		}
		if pos == len(query) {
			if typed == 0 {
				return // all-literal: the query itself
			}
			cp := make([]Unit, len(units))
			copy(cp, units)
			out = append(out, Template{Units: cp})
			return
		}
		for _, u := range options[pos] {
			units[pos] = u
			inc := 0
			if u.IsType() {
				inc = 1
			}
			walk(pos+1, typed+inc)
		}
	}
	walk(0, 0)
	return out
}

// EnumerateKeys is Enumerate returning canonical keys only.
func EnumerateKeys(query []textproc.Token, rec types.Recognizer) []string {
	ts := Enumerate(query, rec)
	keys := make([]string, len(ts))
	for i, t := range ts {
		keys[i] = t.Key()
	}
	return keys
}

// ParseKey parses a canonical key back into a Template ("〈topic〉 research").
// It is the inverse of Key for well-formed inputs; malformed unit syntax is
// treated as a literal word.
func ParseKey(key string) Template {
	parts := strings.Split(key, " ")
	units := make([]Unit, 0, len(parts))
	for _, p := range parts {
		if strings.HasPrefix(p, "〈") && strings.HasSuffix(p, "〉") {
			name := strings.TrimSuffix(strings.TrimPrefix(p, "〈"), "〉")
			units = append(units, Unit{Type: types.Type(name)})
			continue
		}
		units = append(units, Unit{Word: p})
	}
	return Template{Units: units}
}
