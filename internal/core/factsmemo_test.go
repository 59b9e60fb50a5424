package core

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"l2q/internal/textproc"
	"l2q/internal/types"
)

// memoFixture is a fixture whose domain model carries a memo of the given
// (tiny) capacity, plus the distinct n-grams of the target entity's pages
// that are not domain candidates — what a session would send the memo.
func memoFixture(t *testing.T, capacity int) (*fixture, Config, *sharedCandidateFacts, []Query) {
	t.Helper()
	f := newFixture(t)
	cfg := DefaultConfig()
	cfg.Tokenizer = f.g.Tokenizer
	sh := newSharedCandidateFacts(cfg, f.rec, f.dm, capacity)
	f.dm.shared = sh
	var grams []Query
	seen := map[Query]bool{}
	for _, p := range f.g.Corpus.PagesOf(f.target.ID) {
		for _, g := range p.NGrams(cfg.ngramConfig(nil)) {
			q := Query(g)
			if _, candidate := sh.byQuery[q]; !candidate && !seen[q] {
				seen[q] = true
				grams = append(grams, q)
			}
		}
	}
	return f, cfg, sh, grams
}

// TestFactsMemoRotation drives a memo of 16 entries per generation through
// many generation turns: three passes over a few hundred page n-grams in
// batches of five, three hot queries riding in every batch. Whatever the
// memo hands out — first computed, found, promoted, or recomputed after
// eviction — must equal an uncached computeFacts; it never holds more than
// two generations; the hot queries survive every turn by promotion while
// cold ones are dropped; and only the tokenizer and recognizer the table
// was built for are handed it.
func TestFactsMemoRotation(t *testing.T) {
	const capacity = 16
	f, cfg, sh, grams := memoFixture(t, capacity)
	if len(grams) < 10*capacity {
		t.Fatalf("fixture has only %d page n-grams", len(grams))
	}
	hot, cold := grams[:3], grams[3:]
	turns, lastCur := 0, 0
	for pass := 0; pass < 3; pass++ {
		for i := 0; i+5 <= len(cold); i += 5 {
			batch := append(hot[:3:3], cold[i:i+5]...)
			qvs := make([]queryVertex, len(batch))
			for j, q := range batch {
				qvs[j].q = q
			}
			sh.fill(cfg, f.dm, qvs)
			for j, q := range batch {
				if want := computeFacts(cfg, f.rec, f.dm, q); !reflect.DeepEqual(qvs[j].candidateFacts, want) {
					t.Fatalf("pass %d, %q: memo gave %+v, uncached %+v", pass, q, qvs[j].candidateFacts, want)
				}
			}
			if len(sh.cur) > capacity || len(sh.cur)+len(sh.prev) > 2*capacity {
				t.Fatalf("memo holds %d + %d entries, capacity %d per generation", len(sh.cur), len(sh.prev), capacity)
			}
			if len(sh.cur) < lastCur {
				turns++
			}
			lastCur = len(sh.cur)
		}
	}
	if turns < 10 {
		t.Fatalf("only %d generation turns", turns)
	}
	held := func(q Query) bool {
		_, inCur := sh.cur[q]
		_, inPrev := sh.prev[q]
		return inCur || inPrev
	}
	for _, q := range hot {
		if !held(q) {
			t.Errorf("hot query %q was evicted despite a lookup in every batch", q)
		}
	}
	if held(cold[0]) {
		t.Errorf("cold query %q is still held %d turns after its last lookup", cold[0], turns)
	}

	if got := f.dm.candidateFactsFor(cfg, f.rec); got != sh {
		t.Error("the tokenizer and recognizer the table was built for were not handed it")
	}
	otherTok := cfg
	otherTok.Tokenizer = &textproc.Tokenizer{Lexicon: cfg.Tokenizer.Lexicon}
	if f.dm.candidateFactsFor(otherTok, f.rec) != nil {
		t.Error("a session with another tokenizer was handed the table")
	}
	if f.dm.candidateFactsFor(cfg, types.NewRegexRecognizer()) != nil {
		t.Error("a session with another recognizer was handed the table")
	}
}

// TestFactsMemoOwnsItsStrings: a page n-gram is a substring of a parsed
// page body (or of the page's n-gram memo), and the model outlives every
// page, so neither the memo's key nor anything in its entry may point into
// the string it was asked about.
func TestFactsMemoOwnsItsStrings(t *testing.T) {
	f, cfg, sh, grams := memoFixture(t, 16)
	body := strings.Repeat(string(grams[0])+" ", 3) // a heap string standing in for page text
	q := Query(body[:len(grams[0])])
	lo := uintptr(unsafe.Pointer(unsafe.StringData(body)))
	inBody := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= lo && p < lo+uintptr(len(body))
	}
	if !inBody(string(q)) {
		t.Fatal("test query does not alias its body")
	}
	qvs := []queryVertex{{q: q}}
	sh.fill(cfg, f.dm, qvs)
	if len(sh.cur) != 1 {
		t.Fatalf("memo holds %d entries after one miss", len(sh.cur))
	}
	for key, e := range sh.cur {
		if key != q || e.key != q {
			t.Fatalf("memo keyed %q / %q for %q", key, e.key, q)
		}
		if unsafe.StringData(string(key)) == unsafe.StringData(string(q)) || inBody(string(key)) || inBody(string(e.key)) {
			t.Error("memo key aliases the string it was inserted for")
		}
		for _, s := range append(append([]string(nil), e.toks...), e.keys...) {
			if inBody(s) {
				t.Errorf("memo entry holds %q inside the source string", s)
			}
		}
	}
	for _, tok := range qvs[0].toks {
		if inBody(tok) {
			t.Errorf("the session was handed token %q inside the source string although the memo has its own", tok)
		}
	}
}
