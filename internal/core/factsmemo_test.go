package core

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"l2q/internal/textproc"
	"l2q/internal/types"
)

// memoFixture is a fixture with a gramTable of the given (tiny) capacity
// per generation, plus the distinct n-grams of the target entity's pages
// as a session's pool would ask the table for them.
func memoFixture(t *testing.T, capacity int) (*fixture, Config, *gramTable, []gramReq) {
	t.Helper()
	f := newFixture(t)
	cfg := DefaultConfig()
	cfg.Tokenizer = f.g.Tokenizer
	table := newGramTable(cfg, f.rec, capacity)
	var reqs []gramReq
	seen := map[textproc.GramKey]bool{}
	for _, p := range f.g.Corpus.PagesOf(f.target.ID) {
		toks := p.Tokens()
		for _, w := range textproc.AppendGramWindows(nil, p.TermIDs(table.vocab), textproc.IDGramConfig{}) {
			if !seen[w.Key] {
				seen[w.Key] = true
				reqs = append(reqs, gramReq{key: w.Key, toks: toks[w.Start : int(w.Start)+w.Key.Len()]})
			}
		}
	}
	return f, cfg, table, reqs
}

// TestFactsMemoRotation drives a table of 16 entries per generation
// through many generation turns: three passes over a few hundred page
// n-grams in batches of five, three hot grams riding in every batch.
// Whatever the table hands out — first computed, found, promoted, or
// recomputed after eviction — must equal an uncached computation, template
// keys and priors included; it never holds more than two generations; the
// hot grams survive every turn by promotion while cold ones are dropped;
// and a Config hands one table to every session with its tokenizer and
// recognizer, and another to a session with other ones.
func TestFactsMemoRotation(t *testing.T) {
	const capacity = 16
	f, cfg, table, reqs := memoFixture(t, capacity)
	if len(reqs) < 10*capacity {
		t.Fatalf("fixture has only %d page n-grams", len(reqs))
	}
	hot, cold := reqs[:3], reqs[3:]
	turns, lastCur := 0, 0
	for pass := 0; pass < 3; pass++ {
		for i := 0; i+5 <= len(cold); i += 5 {
			batch := append(hot[:3:3], cold[i:i+5]...)
			got := make([]*candidateFacts, len(batch))
			table.resolve(batch, got)
			qvs := make([]queryVertex, len(batch))
			for j := range batch {
				qvs[j] = queryVertex{q: got[j].q, candidateFacts: got[j]}
			}
			table.fillModel(f.rec, f.dm, qvs)
			for j, r := range batch {
				q := Query(textproc.JoinQuery(r.toks))
				want := computeFacts(cfg, f.rec, q)
				wantR, wantRStar := f.dm.countingPrior(q, want.keys)
				if qv := qvs[j]; qv.q != q || !reflect.DeepEqual(qv.toks, want.toks) || !reflect.DeepEqual(qv.keys, want.keys) ||
					qv.priorR != wantR || qv.priorRStar != wantRStar {
					t.Fatalf("pass %d, %q: table gave %q %q %q (%v, %v), uncached %q %q (%v, %v)", pass, q,
						qv.q, qv.toks, qv.keys, qv.priorR, qv.priorRStar, want.toks, want.keys, wantR, wantRStar)
				}
			}
			if table.cur.n > capacity || table.cur.n+table.prev.n > 2*capacity {
				t.Fatalf("table holds %d + %d entries, capacity %d per generation", table.cur.n, table.prev.n, capacity)
			}
			if table.cur.n < lastCur {
				turns++
			}
			lastCur = table.cur.n
		}
	}
	if turns < 10 {
		t.Fatalf("only %d generation turns", turns)
	}
	held := func(r gramReq) bool {
		return table.cur.get(r.key) != nil || table.prev.get(r.key) != nil
	}
	for _, r := range hot {
		if !held(r) {
			t.Errorf("hot gram %q was evicted despite a lookup in every batch", r.toks)
		}
	}
	if held(cold[0]) {
		t.Errorf("cold gram %q is still held %d turns after its last lookup", cold[0].toks, turns)
	}

	shared := cfg.gramTable(f.rec)
	if cfg.gramTable(f.rec) != shared {
		t.Error("the tokenizer and recognizer the table was built for were handed another")
	}
	otherTok := cfg
	otherTok.Tokenizer = &textproc.Tokenizer{Lexicon: cfg.Tokenizer.Lexicon}
	if otherTok.gramTable(f.rec) == shared {
		t.Error("a session with another tokenizer was handed the table")
	}
	if cfg.gramTable(types.NewRegexRecognizer()) == shared {
		t.Error("a session with another recognizer was handed the table")
	}
	if DefaultConfig().gramTable(f.rec) == shared {
		t.Error("another Config was handed the table")
	}
}

// TestFactsMemoOwnsItsStrings: a page n-gram's tokens are substrings of a
// parsed page body, and the table outlives every page, so neither an
// entry's string nor its tokens may point into the body (the vocabulary's
// own copies are TestVocabularyOwnsItsTerms').
func TestFactsMemoOwnsItsStrings(t *testing.T) {
	_, cfg, _, reqs := memoFixture(t, 16)
	var one, two gramReq
	for _, r := range reqs {
		switch len(r.toks) {
		case 1:
			one = r
		case 2:
			two = r
		}
	}
	body := strings.Repeat(textproc.JoinQuery(two.toks)+" "+one.toks[0]+" ", 3) // a heap string standing in for page text
	lo := uintptr(unsafe.Pointer(unsafe.StringData(body)))
	inBody := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= lo && p < lo+uintptr(len(body))
	}
	toks := cfg.Tokenizer.Tokenize(body)
	if !inBody(toks[0]) {
		t.Fatal("test tokens do not alias their body")
	}
	fresh := newGramTable(cfg, nil, 16)
	ids := fresh.vocab.AppendIDs(nil, toks)
	batch := []gramReq{
		{key: textproc.GramOf(ids[:len(two.toks)]), toks: toks[:len(two.toks)]},
		{key: textproc.GramOf(ids[len(two.toks) : len(two.toks)+1]), toks: toks[len(two.toks) : len(two.toks)+1]},
	}
	got := make([]*candidateFacts, len(batch))
	fresh.resolve(batch, got)
	for _, f := range got {
		if inBody(string(f.q)) {
			t.Errorf("entry %q aliases the source string", f.q)
		}
		for _, s := range f.toks {
			if inBody(s) {
				t.Errorf("entry %q holds token %q inside the source string", f.q, s)
			}
		}
	}
	if fresh.cur.n != len(batch) {
		t.Fatalf("table holds %d entries after %d misses", fresh.cur.n, len(batch))
	}
}
