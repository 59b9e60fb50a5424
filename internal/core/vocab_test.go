package core

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

// TestCandidatePoolStringModeMatchesReference holds the pool's string mode
// to the rebuild path on the five ways a session meets grams that are not
// keyed by their string alone: every page tokenized by another tokenizer
// (the same lexicon in another Tokenizer, so the string path must land on
// the key path's very table), pages from two tokenizers that make one
// string two token sequences ("data mining" merged on one page, two tokens
// on another tokenized without a lexicon), a gram across a paragraph end
// that the lexicon would merge, fired queries whose tokens are a
// candidate's but whose string is not, and a key-path session that meets
// a ready-made page mid-run.
func TestCandidatePoolStringModeMatchesReference(t *testing.T) {
	const steps = 5
	check := func(t *testing.T, s *Session, step int) []Query {
		t.Helper()
		for _, useDomain := range []bool{true, false} {
			got, want := s.Candidates(useDomain), s.CandidatesReference(useDomain)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d useDomain=%v: pool diverged (%d vs %d candidates)", step, useDomain, len(got), len(want))
			}
		}
		return s.Candidates(true)
	}

	t.Run("foreign tokenizer", func(t *testing.T) {
		for domain, f := range diffDomains(t) {
			t.Run(domain, func(t *testing.T) {
				keyed := f.sessionWith(f.diffConfig(), f.dm)
				cfg := f.diffConfig()
				cfg.Tokenizer = &textproc.Tokenizer{Lexicon: f.g.Tokenizer.Lexicon}
				strs := f.sessionWith(cfg, f.dm)
				mustBoot(t, keyed)
				mustBoot(t, strs)
				for step := 0; step <= steps; step++ {
					want := check(t, keyed, step)
					if got := check(t, strs, step); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: the string path's pool differs from the key path's", step)
					}
					if keyed.pool.byQuery != nil || strs.pool.byQuery == nil {
						t.Fatalf("step %d: string mode is %v on the key path, %v on the string path",
							step, keyed.pool.byQuery != nil, strs.pool.byQuery != nil)
					}
					if len(want) == 0 {
						break
					}
					mustFire(t, keyed, want[0])
					mustFire(t, strs, want[0])
				}
			})
		}
	})

	t.Run("one string, two token sequences", func(t *testing.T) {
		// The session's tokenizer merges "data mining" into one token on
		// the even pages; a lexicon-less one leaves it two on the odd.
		tok := &textproc.Tokenizer{Lexicon: textproc.NewLexicon([]string{"data mining", "mining systems"})}
		toks := []*textproc.Tokenizer{tok, {}}
		texts := []string{
			"acme data mining systems for the data of mining",
			"acme builds data of mining tools and data mining systems",
			"acme mining systems of data the mining data",
			"acme data mining data mining of systems",
		}
		var pages []*corpus.Page
		for i, text := range texts {
			p := &corpus.Page{ID: corpus.PageID(i), Entity: 1}
			p.SetParas([]corpus.Paragraph{{Text: text}}, toks[i%2])
			pages = append(pages, p)
		}
		cfg := DefaultConfig()
		cfg.Tokenizer = tok
		s := NewSession(cfg, search.NewEngine(search.BuildIndex(pages)), &corpus.Entity{ID: 1, SeedQuery: "acme"},
			"A", func(*corpus.Page) bool { return true }, nil, nil, 1)
		mustBoot(t, s)
		cands := check(t, s, 0)
		if s.pool.byQuery == nil {
			t.Fatal("a lexicon-less tokenizer's pages left the pool on the key path")
		}
		n := 0
		for _, q := range cands {
			if q == "data mining" {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("%q is %d candidates in %q", "data mining", n, cands)
		}
		for step := 1; step <= 3 && len(cands) > 0; step++ {
			mustFire(t, s, cands[len(cands)/2])
			cands = check(t, s, step)
		}
	})

	t.Run("across a paragraph end", func(t *testing.T) {
		// "data" ends a paragraph and "mining" opens the next: two tokens
		// the session's tokenizer merges into one wherever they share a
		// paragraph, as on the second page.
		tok := &textproc.Tokenizer{Lexicon: textproc.NewLexicon([]string{"data mining"})}
		paras := [][]string{
			{"acme studies data", "mining at acme is fun"},
			{"acme data mining rocks"},
		}
		var pages []*corpus.Page
		for i, texts := range paras {
			p := &corpus.Page{ID: corpus.PageID(i), Entity: 1}
			ps := make([]corpus.Paragraph, len(texts))
			for j, text := range texts {
				ps[j].Text = text
			}
			p.SetParas(ps, tok)
			pages = append(pages, p)
		}
		cfg := DefaultConfig()
		cfg.Tokenizer = tok
		s := NewSession(cfg, search.NewEngine(search.BuildIndex(pages)), &corpus.Entity{ID: 1, SeedQuery: "acme"},
			"A", func(*corpus.Page) bool { return true }, nil, nil, 1)
		mustBoot(t, s)
		if len(s.pages) != len(pages) {
			t.Fatalf("the seed query found %d of the %d pages", len(s.pages), len(pages))
		}
		cands := check(t, s, 0)
		if s.pool.byQuery == nil {
			t.Fatal("a gram across a paragraph end that is not canonical left the pool on the key path")
		}
		if n := slices.Index(cands, "data mining"); n < 0 || slices.Contains(cands[n+1:], "data mining") {
			t.Fatalf("%q is not one candidate in %q", "data mining", cands)
		}
	})

	t.Run("fired queries that are not their tokens' join", func(t *testing.T) {
		f := newDiffFixture(t, synth.DomainResearchers, synth.AspResearch)
		s := f.sessionWith(f.diffConfig(), f.dm)
		mustBoot(t, s)
		cands := check(t, s, 0)
		// Each tokenizes to a live candidate's tokens but is another string,
		// so it retires nothing.
		var odd []Query
		for _, q := range cands {
			if strings.Contains(string(q), " ") && len(odd) < 3 {
				odd = append(odd, Query(strings.ToUpper(string(q))), " "+q, q+" ")
			}
		}
		for step, q := range odd {
			mustFire(t, s, q)
			check(t, s, step+1)
		}
		if s.pool.byQuery == nil {
			t.Fatal("queries without a key left the pool on the key path")
		}
	})

	t.Run("mid-session", func(t *testing.T) {
		f := newDiffFixture(t, synth.DomainResearchers, synth.AspResearch)
		s := f.sessionWith(f.diffConfig(), f.dm)
		mustBoot(t, s)
		cands := check(t, s, 0)
		mustFire(t, s, cands[0])
		cands = check(t, s, 1)
		if s.pool.byQuery != nil {
			t.Fatal("the fixture's own pages left the pool on the key path")
		}
		// A ready-made page (no tokenizer) repeating the pool's candidates,
		// phrase tokens split into their words.
		var toks []textproc.Token
		for _, q := range cands[:min(40, len(cands))] {
			toks = append(toks, textproc.SplitQuery(string(q))...)
		}
		odd := &corpus.Page{ID: 1 << 30, Entity: s.Entity.ID, Paras: []corpus.Paragraph{{Tokens: toks}}}
		s.Ingest(cands[1], []search.Result{{Page: odd}})
		cands = check(t, s, 2)
		if s.pool.byQuery == nil {
			t.Fatal("a page without a tokenizer left the pool on the key path")
		}
		for step := 3; step <= steps && len(cands) > 0; step++ {
			mustFire(t, s, cands[0])
			cands = check(t, s, step)
		}
	})
}

// TestVocabularyOrderIndependent: term ids depend on which term a process
// met first, and nothing may depend on them. Vocabularies pre-seeded with
// every corpus term in reversed and in shuffled order must fire the same
// queries and gather the same pages as an unseeded one, for every inferring
// strategy and P+q/R+q on both domains.
func TestVocabularyOrderIndependent(t *testing.T) {
	selectors := []func() Selector{
		NewP, NewR, NewPQ, NewRQ, NewPT, NewRT, NewL2QP, NewL2QR, NewL2QBAL,
	}
	for domain, f := range diffDomains(t) {
		var terms []textproc.Token
		seen := map[textproc.Token]bool{}
		for _, p := range f.g.Corpus.Pages {
			for _, tok := range p.Tokens() {
				if !seen[tok] {
					seen[tok] = true
					terms = append(terms, tok)
				}
			}
		}
		reversed := slices.Clone(terms)
		slices.Reverse(reversed)
		shuffled := slices.Clone(terms)
		rand.New(rand.NewPCG(11, 12)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		seeded := func(order []textproc.Token) Config {
			cfg := f.diffConfig()
			cfg.gramTable(f.rec).vocab.AppendIDs(nil, order)
			return cfg
		}
		configs := map[string]Config{"reversed": seeded(reversed), "shuffled": seeded(shuffled)}
		for _, mk := range selectors {
			sel := mk()
			t.Run(domain+"/"+sel.Name(), func(t *testing.T) {
				base := f.sessionWith(f.diffConfig(), f.dm)
				fired := mustRun(t, base, sel, 4)
				if len(fired) == 0 {
					t.Fatal("no queries fired")
				}
				for name, cfg := range configs {
					s := f.sessionWith(cfg, f.dm)
					if got := mustRun(t, s, sel, 4); !reflect.DeepEqual(got, fired) {
						t.Fatalf("%s vocabulary fired %q, unseeded %q", name, got, fired)
					}
					if !reflect.DeepEqual(pageIDs(s.Pages()), pageIDs(base.Pages())) {
						t.Fatalf("%s vocabulary gathered other pages", name)
					}
				}
			})
		}
	}
}

func pageIDs(pages []*corpus.Page) []corpus.PageID {
	out := make([]corpus.PageID, len(pages))
	for i, p := range pages {
		out[i] = p.ID
	}
	return out
}
