package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

func testBundle(t *testing.T, domain corpus.Domain) (*corpus.Corpus, *search.Index) {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(domain))
	if err != nil {
		t.Fatal(err)
	}
	// Give some pages links so the link encoding is exercised.
	for i, p := range g.Corpus.Pages {
		if i%3 == 0 && i+2 < g.Corpus.NumPages() {
			p.Links = []corpus.PageID{p.ID + 1, p.ID + 2, 0}
		}
	}
	return g.Corpus, search.BuildIndex(g.Corpus.Pages)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, domain := range []corpus.Domain{synth.DomainResearchers, synth.DomainCars} {
		t.Run(string(domain), func(t *testing.T) {
			c, idx := testBundle(t, domain)
			var buf bytes.Buffer
			if err := Save(&buf, c, idx); err != nil {
				t.Fatal(err)
			}
			b, err := Load(&buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertCorpusEqual(t, c, b.Corpus)
			if b.Index == nil {
				t.Fatal("index missing from bundle")
			}
			assertIndexEqual(t, idx, b.Index)
		})
	}
}

func TestSaveLoadWithoutIndex(t *testing.T) {
	c, _ := testBundle(t, synth.DomainCars)
	var buf bytes.Buffer
	if err := Save(&buf, c, nil); err != nil {
		t.Fatal(err)
	}
	b, err := Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Index != nil {
		t.Error("expected nil index")
	}
	assertCorpusEqual(t, c, b.Corpus)
}

func TestSaveFileLoadFile(t *testing.T) {
	c, idx := testBundle(t, synth.DomainCars)
	path := filepath.Join(t.TempDir(), "corpus.l2q")
	if err := SaveFile(path, c, idx); err != nil {
		t.Fatal(err)
	}
	b, err := LoadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertCorpusEqual(t, c, b.Corpus)
	assertIndexEqual(t, idx, b.Index)
}

// TestRestoredIndexSearchIdentical verifies the restored index ranks
// exactly like the original for real queries.
func TestRestoredIndexSearchIdentical(t *testing.T) {
	c, idx := testBundle(t, synth.DomainResearchers)
	var buf bytes.Buffer
	if err := Save(&buf, c, idx); err != nil {
		t.Fatal(err)
	}
	b, err := Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	orig := search.NewEngine(idx)
	restored := search.NewEngine(b.Index)

	queries := [][]textproc.Token{
		c.Entities[0].SeedTokens(),
		{"research"},
		{"research", "award"},
		{"nonexistent-token-xyz"},
	}
	for _, q := range queries {
		ro := orig.SearchWithSeed(nil, q)
		rr := restored.SearchWithSeed(nil, q)
		if len(ro) != len(rr) {
			t.Fatalf("query %v: %d vs %d results", q, len(ro), len(rr))
		}
		for i := range ro {
			if ro[i].Page.ID != rr[i].Page.ID {
				t.Errorf("query %v rank %d: page %d vs %d", q, i, ro[i].Page.ID, rr[i].Page.ID)
			}
			if diff := ro[i].Score - rr[i].Score; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("query %v rank %d: score %v vs %v", q, i, ro[i].Score, rr[i].Score)
			}
		}
	}
}

// TestSaveIndexTermOutsidePages: an index restored from a file may name a
// term no page holds; saving it must keep that term's postings under its
// own name (the dictionary used to hold page tokens only, so the term was
// written as term id 0 and overwrote that term's postings on load).
func TestSaveIndexTermOutsidePages(t *testing.T) {
	c, idx := testBundle(t, synth.DomainCars)
	postings := map[textproc.Token][]search.RawPosting{"zz-no-page-holds-this": {{Doc: 0, TF: 1}}}
	idx.DumpPostings(func(term textproc.Token, posts []search.RawPosting) {
		postings[term] = append([]search.RawPosting(nil), posts...)
	})
	ghost, err := search.RestoreIndex(c.Pages, postings)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, c, ghost); err != nil {
		t.Fatal(err)
	}
	b, err := Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, ghost, b.Index)
}

// sectionFrame mirrors writeContainer's framing for test construction.
func sectionFrame(name string, payload []byte) []byte {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(name)))
	out = append(out, name...)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

func TestSaveValidation(t *testing.T) {
	if err := Save(&bytes.Buffer{}, nil, nil); err == nil {
		t.Error("nil corpus accepted")
	}
	c, _ := testBundle(t, synth.DomainCars)
	wrongIdx := search.BuildIndex(c.Pages[:1])
	if err := Save(&bytes.Buffer{}, c, wrongIdx); err == nil {
		t.Error("mismatched index accepted")
	}
}

func assertCorpusEqual(t *testing.T, want, got *corpus.Corpus) {
	t.Helper()
	if want.Domain != got.Domain {
		t.Fatalf("domain %q vs %q", got.Domain, want.Domain)
	}
	if got.NumEntities() != want.NumEntities() || got.NumPages() != want.NumPages() {
		t.Fatalf("size %d/%d vs %d/%d",
			got.NumEntities(), got.NumPages(), want.NumEntities(), want.NumPages())
	}
	for i, we := range want.Entities {
		ge := got.Entities[i]
		if we.ID != ge.ID || we.Name != ge.Name || we.SeedQuery != ge.SeedQuery ||
			we.Domain != ge.Domain || !reflect.DeepEqual(we.Attrs, ge.Attrs) {
			t.Fatalf("entity %d differs: %+v vs %+v", i, ge, we)
		}
	}
	for i, wp := range want.Pages {
		gp := got.Pages[i]
		if wp.ID != gp.ID || wp.Entity != gp.Entity || wp.URL != gp.URL || wp.Title != gp.Title {
			t.Fatalf("page %d header differs", i)
		}
		if !reflect.DeepEqual(wp.Links, gp.Links) {
			t.Fatalf("page %d links %v vs %v", i, gp.Links, wp.Links)
		}
		if len(wp.Paras) != len(gp.Paras) {
			t.Fatalf("page %d has %d paras, want %d", i, len(gp.Paras), len(wp.Paras))
		}
		for j := range wp.Paras {
			w, g := &wp.Paras[j], &gp.Paras[j]
			if w.Text != g.Text || w.Aspect != g.Aspect || !reflect.DeepEqual(wp.ParaTokens(j), gp.ParaTokens(j)) {
				t.Fatalf("page %d para %d differs", i, j)
			}
		}
	}
}

func assertIndexEqual(t *testing.T, want, got *search.Index) {
	t.Helper()
	if want.NumDocs() != got.NumDocs() || want.NumTerms() != got.NumTerms() ||
		want.TotalTokens() != got.TotalTokens() {
		t.Fatalf("index stats: docs %d/%d terms %d/%d toks %d/%d",
			got.NumDocs(), want.NumDocs(), got.NumTerms(), want.NumTerms(),
			got.TotalTokens(), want.TotalTokens())
	}
	wantPosts := map[string][]search.RawPosting{}
	want.DumpPostings(func(term textproc.Token, posts []search.RawPosting) {
		wantPosts[term] = append([]search.RawPosting(nil), posts...)
	})
	got.DumpPostings(func(term textproc.Token, posts []search.RawPosting) {
		if !reflect.DeepEqual(wantPosts[term], posts) {
			t.Fatalf("postings for %q differ", term)
		}
		delete(wantPosts, term)
	})
	if len(wantPosts) != 0 {
		t.Fatalf("%d terms missing from restored index", len(wantPosts))
	}
}

// TestSaveLoadThroughPipe proves the format is truly streaming: writer and
// reader connected by an os.Pipe with no seeking.
func TestSaveLoadThroughPipe(t *testing.T) {
	c, idx := testBundle(t, synth.DomainCars)
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		defer pw.Close()
		errCh <- Save(pw, c, idx)
	}()
	b, err := Load(pr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	assertCorpusEqual(t, c, b.Corpus)
	assertIndexEqual(t, idx, b.Index)
}

// TestLoadKeepPredicate: a load under a page predicate (how a cluster node
// reads the shared store) returns exactly the kept pages, equal to the same
// pages of the unfiltered load, with the whole entity table, the same
// tokenizer and no whole-corpus index — and it still reads every page: a
// structurally corrupt page fails the load even when the predicate would
// have dropped it.
func TestLoadKeepPredicate(t *testing.T) {
	c, idx := testBundle(t, synth.DomainResearchers)
	var buf bytes.Buffer
	if err := Save(&buf, c, idx); err != nil {
		t.Fatal(err)
	}
	full, err := Load(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	ring := search.NewRing(3, 2, 0)
	keep := func(id corpus.PageID) bool { return ring.Holds(2, id) }
	b, err := Load(bytes.NewReader(buf.Bytes()), keep)
	if err != nil {
		t.Fatal(err)
	}
	want := corpus.New(c.Domain)
	for _, e := range full.Corpus.Entities {
		if err := want.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range full.Corpus.Pages {
		if keep(p.ID) {
			if err := want.AddPage(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want.NumPages() == 0 || want.NumPages() == c.NumPages() {
		t.Fatalf("predicate keeps %d of %d pages; the test proves nothing", want.NumPages(), c.NumPages())
	}
	assertCorpusEqual(t, want, b.Corpus)
	if b.Index != nil {
		t.Error("a filtered load restored the whole-corpus index")
	}
	if !reflect.DeepEqual(b.Tokenizer, full.Tokenizer) || b.Tokenizer.Lexicon.Len() == 0 {
		t.Errorf("filtered load's tokenizer differs from the full load's (or has no phrases)")
	}
	// The dictionary's tokenizer re-tokenizes page text to the stored tokens.
	for _, p := range b.Corpus.Pages[:10] {
		for i := range p.Paras {
			if got := b.Tokenizer.Tokenize(p.Paras[i].Text); !reflect.DeepEqual(got, p.ParaTokens(i)) {
				t.Fatalf("page %d para %d: store tokenizer gives %v, stored %v", p.ID, i, got, p.ParaTokens(i))
			}
		}
	}

	// A file whose dictionary lacks its last term: every page using that
	// term carries an out-of-range token id behind valid checksums. Drop
	// exactly those pages by predicate — the load must fail all the same.
	dict := buildDictionary(func(emit func(textproc.Token)) {
		for _, p := range c.Pages {
			for _, t := range p.Tokens() {
				emit(t)
			}
		}
	})
	last := dict.terms[len(dict.terms)-1]
	short := &dictionary{terms: dict.terms[:len(dict.terms)-1]}
	clean := func(id corpus.PageID) bool { return !c.Pages[id].HasToken(last) }
	for _, tc := range []struct {
		name string
		dict *dictionary
		ok   bool
	}{{"intact", dict, true}, {"corrupt unkept pages", short, false}} {
		var file bytes.Buffer
		file.WriteString(magic)
		var e Enc
		for _, sec := range []struct {
			name   string
			encode func(*Enc)
		}{
			{secMeta, func(e *Enc) { encodeMeta(e, c) }},
			{secDict, tc.dict.encode},
			{secEntities, func(e *Enc) { encodeEntities(e, c) }},
			{secPages, func(e *Enc) { encodePages(e, c, dict) }},
			{secEnd, func(*Enc) {}},
		} {
			e.Reset()
			sec.encode(&e)
			file.Write(sectionFrame(sec.name, e.Data()))
		}
		got, err := Load(&file, clean)
		if tc.ok {
			if err != nil || got.Corpus.NumPages() == 0 || got.Corpus.NumPages() == c.NumPages() {
				t.Fatalf("%s: load under the predicate: %v (the predicate must drop some pages, not all)", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), secPages) {
			t.Fatalf("%s: load error %v, want a PAGE section failure", tc.name, err)
		}
	}
}
