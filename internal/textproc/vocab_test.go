package textproc

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestVocabularyIDs: a term keeps one id however often and wherever it is
// interned, distinct terms get distinct ids with dense indexes, the
// stopword bit is the list's answer, and no id is zero — across several
// snapshot merges.
func TestVocabularyIDs(t *testing.T) {
	sw := NewStopwords()
	v := NewVocabulary(sw)
	var terms []Token
	for i := 0; i < 500; i++ {
		terms = append(terms, fmt.Sprintf("t%d", i))
	}
	terms = append(terms, "the", "of", "data mining")
	first := v.AppendIDs(nil, terms)
	seen := map[TermID]Token{}
	indexes := map[int]bool{}
	for i, id := range first {
		if id == 0 {
			t.Fatalf("%q got id 0", terms[i])
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("%q and %q share id %d", prev, terms[i], id)
		}
		seen[id] = terms[i]
		indexes[id.Index()] = true
		if id.Stop() != sw.Contains(terms[i]) {
			t.Fatalf("%q: stop bit %v", terms[i], id.Stop())
		}
	}
	for i := range len(terms) {
		if !indexes[i] {
			t.Fatalf("index %d unused: indexes are not dense", i)
		}
	}
	if v.Len() != len(terms) {
		t.Fatalf("Len %d for %d terms", v.Len(), len(terms))
	}
	again := v.AppendIDs(nil, append([]Token{"new"}, terms...))
	for i, id := range again[1:] {
		if id != first[i] {
			t.Fatalf("%q: id %d, then %d", terms[i], first[i], id)
		}
	}
}

// TestVocabularyOwnsItsTerms: a vocabulary outlives every page it interns
// terms from, so no term it keeps — snapshot or recent — may point into
// the text it was handed.
func TestVocabularyOwnsItsTerms(t *testing.T) {
	body := strings.Repeat("alpha beta gamma delta ", 40)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(body)))
	inBody := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= lo && p < lo+uintptr(len(body))
	}
	v := NewVocabulary(nil)
	for _, chunk := range []string{body[:60], body, body[7:]} {
		toks := AppendTokens(nil, chunk)
		if !inBody(toks[0]) {
			t.Fatal("test tokens do not alias their body")
		}
		v.AppendIDs(nil, toks)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, m := range []map[string]TermID{*v.snap.Load(), v.recent} {
		for term := range m {
			if inBody(term) {
				t.Errorf("term %q aliases the text it was interned from", term)
			}
		}
	}
}

// TestVocabularyConcurrent interns overlapping term streams from many
// goroutines at once; under -race it is the check that readers of the
// snapshot and interners under the lock never race, and every goroutine
// must see the same id for the same term.
func TestVocabularyConcurrent(t *testing.T) {
	v := NewVocabulary(NewStopwords())
	const workers = 8
	got := make([]map[Token]TermID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = map[Token]TermID{}
			for round := 0; round < 50; round++ {
				toks := make([]Token, 0, 40)
				for i := 0; i < 40; i++ {
					toks = append(toks, fmt.Sprintf("w%d", (w*7+round*13+i)%300))
				}
				for i, id := range v.AppendIDs(nil, toks) {
					if prev, ok := got[w][toks[i]]; ok && prev != id {
						t.Errorf("%q: id %d, then %d", toks[i], prev, id)
						return
					}
					got[w][toks[i]] = id
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for term, id := range got[w] {
			if other, ok := got[0][term]; ok && other != id {
				t.Fatalf("%q: goroutine 0 saw id %d, goroutine %d id %d", term, other, w, id)
			}
		}
	}
}
