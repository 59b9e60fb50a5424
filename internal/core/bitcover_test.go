package core

import (
	"strings"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

// coverAlphabet is what a FuzzBitCoverMatchesContainment program's token
// bytes name: the first distinct tokens of one fixture's pages (phrase
// tokens among them), the fixture's tokenizer to turn candidate strings
// back into tokens, and the program that replays the fixture's own pages.
type coverAlphabet struct {
	tok   *textproc.Tokenizer
	vocab []textproc.Token
	seed  []byte
}

// Program opcodes (op % 8) and limits; see runCoverProgram.
const (
	coverOpCandidate = 4 // 4, 5: register a candidate
	coverOpFire      = 6
	coverOpIngest    = 7
	coverMaxPages    = 200
	coverVocab       = 250 // page tokens; a candidate byte ≥ len(vocab) names a token no page holds
)

// newCoverAlphabet builds the alphabet of one fixture and encodes its
// first nPages pages as a seed program: each page's leading in-alphabet
// tokens, its ground-truth relevance, and every few pages candidates taken
// from adjacent page tokens (a repeated token and an absent one among
// them), a fired candidate and an ingest.
func newCoverAlphabet(t testing.TB, which byte, domain corpus.Domain, aspect corpus.Aspect, nPages int) coverAlphabet {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(domain))
	if err != nil {
		t.Fatal(err)
	}
	a := coverAlphabet{tok: g.Tokenizer}
	index := map[textproc.Token]byte{}
	for _, p := range g.Corpus.Pages {
		for _, tok := range p.Tokens() {
			if _, ok := index[tok]; !ok && len(a.vocab) < coverVocab {
				index[tok] = byte(len(a.vocab))
				a.vocab = append(a.vocab, tok)
			}
		}
	}
	a.seed = []byte{which}
	for i, p := range g.Corpus.Pages[:nPages] {
		var toks []byte
		for _, tok := range p.Tokens() {
			if ix, ok := index[tok]; ok && len(toks) < 11 {
				toks = append(toks, ix)
			}
		}
		op := byte(0)
		if classify.GroundTruth(p, aspect) {
			op = 1
		}
		a.seed = append(a.seed, op, byte(len(toks)))
		a.seed = append(a.seed, toks...)
		if i%6 == 5 && len(toks) >= 3 {
			a.seed = append(a.seed,
				coverOpCandidate, 1, toks[0],
				coverOpCandidate, 2, toks[1], toks[2],
				coverOpCandidate, 3, toks[0], toks[2], toks[0], // a repeated token
				coverOpCandidate, 2, toks[1], 255, // a token no page holds
				coverOpCandidate, 0, // the empty query
				coverOpFire, byte(i),
				coverOpIngest)
		}
	}
	return a
}

// FuzzBitCoverMatchesContainment holds the session's one containment
// mechanism — per-token page bitsets, a candidate's coverage the
// population count of their intersection — to the predicate it replaced:
// after every ingest, for every attached candidate of a table-only and of
// a graph-backed sessionGraph, cover.all/rel must equal a recount with
// Page.ContainsQuery and Y, and the graph-backed vertex must have exactly
// that many page edges. The input is a program: byte 0 picks the fixture
// whose tokens the rest names, then opcodes add a page (0–3: relevance in
// bit 0, a length, that many token bytes; up to 200 pages, so the 64-page
// word boundary is crossed), register a candidate of 0–3 tokens (4–5),
// fire a registered candidate (6) or ingest the batch and check (7).
func FuzzBitCoverMatchesContainment(f *testing.F) {
	alphabets := []coverAlphabet{
		newCoverAlphabet(f, 0, synth.DomainResearchers, synth.AspResearch, 72),
		newCoverAlphabet(f, 1, synth.DomainCars, synth.AspSafety, 40),
	}
	for _, a := range alphabets {
		f.Add(a.seed)
	}
	f.Add([]byte{0, coverOpCandidate, 1, 3, coverOpIngest, 1, 2, 3, 3, coverOpIngest})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			return
		}
		runCoverProgram(t, alphabets[int(program[0])%len(alphabets)], program[1:])
	})
}

func runCoverProgram(t *testing.T, a coverAlphabet, program []byte) {
	next := func() int {
		if len(program) == 0 {
			return 0
		}
		b := program[0]
		program = program[1:]
		return int(b)
	}
	cfg := DefaultConfig()
	cfg.Tokenizer = a.tok
	relevant := map[corpus.PageID]bool{}
	y := func(p *corpus.Page) bool { return relevant[p.ID] }
	s := NewSession(cfg, nil, &corpus.Entity{SeedQuery: "seed"}, "A", y, nil, nil, 1)
	// The candidate table both forms mirror, filled by the program instead
	// of by page enumeration: a registered candidate gets the next ordinal
	// (once), a fired one is retired as the pool's sync retires it.
	pool := newCandidatePool(false, nil, nil, 0)
	forms := []struct {
		name string
		sg   *sessionGraph
	}{
		{"table-only", newSessionGraph(s, InferOptions{}, pool)},
		{"graph-backed", newSessionGraph(s, InferOptions{Utilities: UtilPrecision}, pool)},
	}
	if forms[0].sg.b.g != nil || forms[1].sg.b.g == nil {
		t.Fatal("forms are not what their requests ask for")
	}

	var registered []Query
	ingest := func() {
		for _, f := range forms {
			form, sg := f.name, f.sg
			sg.ingest(s)
			for ord := range sg.b.qs {
				qv := &sg.b.qs[ord]
				if qv.detached {
					continue
				}
				var want coverage
				for _, p := range s.pages {
					if p.ContainsQuery(qv.toks) {
						want.all++
						if y(p) {
							want.rel++
						}
					}
				}
				if got := sg.cover[ord]; got != want {
					t.Fatalf("%s, %d pages: %q (tokens %q) covers %+v, recount %+v",
						form, len(s.pages), qv.q, qv.toks, got, want)
				}
				if sg.b.g != nil && sg.b.g.Degree(qv.node) != int(want.all) {
					t.Fatalf("%s: %q has %d page edges for %d containing pages",
						form, qv.q, sg.b.g.Degree(qv.node), want.all)
				}
			}
		}
	}

	for len(program) > 0 {
		switch op := next() % 8; op {
		case coverOpCandidate, coverOpCandidate + 1:
			words := make([]string, next()%4)
			for i := range words {
				words[i] = "zzabsent"
				if ix := next(); ix < len(a.vocab) {
					words[i] = a.vocab[ix]
				}
			}
			q := Query(strings.Join(words, " "))
			registered = append(registered, q)
			pool.observe(s, q, candPage)
		case coverOpFire:
			if len(registered) > 0 {
				q := registered[next()%len(registered)]
				s.fired = append(s.fired, q)
				s.firedSet[q] = struct{}{}
				pool.syncFired(s)
			}
		case coverOpIngest:
			ingest()
		default: // a page
			toks := make([]textproc.Token, next()%12)
			for i := range toks {
				toks[i] = a.vocab[next()%len(a.vocab)]
			}
			if len(s.pages) == coverMaxPages {
				continue
			}
			p := &corpus.Page{ID: corpus.PageID(len(s.pages)), Paras: []corpus.Paragraph{{Tokens: toks}}}
			relevant[p.ID] = op&1 == 1
			s.merge([]search.Result{{Page: p}})
		}
	}
	ingest()
}
