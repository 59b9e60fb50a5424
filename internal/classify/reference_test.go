package classify

import (
	"math"
	"reflect"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

// trainReference is the per-aspect training TrainSet's one counting pass
// replaced, kept as its oracle: every call walks every token of every
// paragraph, counting into string maps for the aspect's two classes.
func trainReference(a corpus.Aspect, pages []*corpus.Page) *Classifier {
	counts := [2]map[textproc.Token]int{make(map[textproc.Token]int), make(map[textproc.Token]int)}
	totals := [2]int{}
	nDocs := [2]int{}
	vocab := make(map[textproc.Token]struct{})

	for _, p := range pages {
		for i := range p.Paras {
			para := &p.Paras[i]
			cls := 0
			if para.Aspect == a {
				cls = 1
			}
			nDocs[cls]++
			for _, t := range p.ParaTokens(i) {
				counts[cls][t]++
				totals[cls]++
				vocab[t] = struct{}{}
			}
		}
	}
	if nDocs[0] == 0 || nDocs[1] == 0 {
		return nil
	}

	c := &Classifier{Aspect: a}
	v := float64(len(vocab))
	total := float64(nDocs[0] + nDocs[1])
	for cls := 0; cls < 2; cls++ {
		c.logPrior[cls] = math.Log(float64(nDocs[cls]) / total)
		denom := float64(totals[cls]) + v + 1
		c.logUnk[cls] = math.Log(1 / denom)
		lik := make(map[textproc.Token]float64, len(counts[cls]))
		for t, n := range counts[cls] {
			lik[t] = math.Log((float64(n) + 1) / denom)
		}
		c.logLik[cls] = lik
	}
	return c
}

// referenceSet is the classifiers a serial trainReference loop trains.
func referenceSet(aspects []corpus.Aspect, pages []*corpus.Page) map[corpus.Aspect]*Classifier {
	want := map[corpus.Aspect]*Classifier{}
	for _, a := range aspects {
		if c := trainReference(a, pages); c != nil {
			want[a] = c
		}
	}
	return want
}

// checkMatchesReference holds TrainSet, and Train aspect by aspect, to
// trainReference: the same classifiers, floats equal bit for bit.
func checkMatchesReference(t testing.TB, aspects []corpus.Aspect, pages []*corpus.Page) {
	t.Helper()
	want := referenceSet(aspects, pages)
	if got := TrainSet(aspects, pages).ByAspect; !reflect.DeepEqual(got, want) {
		t.Fatalf("TrainSet(%q) trained %d classifiers unlike trainReference's %d", aspects, len(got), len(want))
	}
	for _, a := range aspects {
		if got, want := Train(a, pages), trainReference(a, pages); !reflect.DeepEqual(got, want) {
			t.Fatalf("Train(%q) differs from trainReference", a)
		}
	}
}

// TestTrainSetMatchesReference: the one counting pass trains exactly the
// classifiers the per-aspect reference does, on both synthetic domains
// over every labelled aspect and on the corners of the derivation.
func TestTrainSetMatchesReference(t *testing.T) {
	for _, d := range []corpus.Domain{synth.DomainResearchers, synth.DomainCars} {
		t.Run(string(d), func(t *testing.T) {
			g := generated(t, d)
			aspects := g.Corpus.Aspects()
			if len(aspects) == 0 {
				t.Fatal("corpus carries no aspect labels")
			}
			checkMatchesReference(t, aspects, g.Corpus.Pages)
			if len(TrainSet(aspects, g.Corpus.Pages).ByAspect) != len(aspects) {
				t.Fatal("an aspect with both classes went untrained")
			}
		})
	}

	pages := []*corpus.Page{
		{ID: 1, Paras: []corpus.Paragraph{
			{Tokens: []string{"a", "b", "a"}, Aspect: "X"},
			{Tokens: []string{"b", "c"}, Aspect: ""},
			{Tokens: nil, Aspect: "Y"},
		}},
		{ID: 2},
		{ID: 3, Paras: []corpus.Paragraph{
			{Tokens: []string{"d"}, Aspect: "Y"},
			{Tokens: []string{"a", "d", "e"}, Aspect: "X"},
			{Tokens: []string{}, Aspect: ""},
		}},
	}
	everywhere := []*corpus.Page{{ID: 4, Paras: []corpus.Paragraph{
		{Tokens: []string{"a"}, Aspect: "X"},
		{Tokens: []string{"b", "a"}, Aspect: "X"},
	}}}
	for _, tc := range []struct {
		name    string
		aspects []corpus.Aspect
		pages   []*corpus.Page
		trained int
	}{
		{"every label", []corpus.Aspect{"X", "Y"}, pages, 2},
		{"aspect no paragraph carries", []corpus.Aspect{"NONE", "X"}, pages, 1},
		{"filler aspect", []corpus.Aspect{""}, pages, 1},
		{"aspect on every paragraph", []corpus.Aspect{"X", "Y"}, everywhere, 0},
		{"empty page list", []corpus.Aspect{"X", ""}, nil, 0},
		{"pages without paragraphs", []corpus.Aspect{"X"}, []*corpus.Page{{ID: 5}, {ID: 6}}, 0},
		{"paragraphs without tokens", []corpus.Aspect{"X", "Y"}, []*corpus.Page{{ID: 7, Paras: []corpus.Paragraph{
			{Aspect: "X"}, {Aspect: "Y"}, {Tokens: []string{}, Aspect: "Y"},
		}}}, 2},
		{"repeated aspect", []corpus.Aspect{"X", "Y", "X"}, pages, 2},
		{"no aspects", nil, pages, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkMatchesReference(t, tc.aspects, tc.pages)
			if got := len(TrainSet(tc.aspects, tc.pages).ByAspect); got != tc.trained {
				t.Fatalf("trained %d classifiers, want %d", got, tc.trained)
			}
		})
	}
}

// fuzzLabels and fuzzTokens are the small alphabets fuzzCorpus draws
// from, so labels and tokens repeat within a few bytes of input.
var (
	fuzzLabels = []corpus.Aspect{"", "A", "B", "C"}
	fuzzTokens = []textproc.Token{"a", "b", "c", "d", "e", "f"}
)

// fuzzCorpus decodes a tiny corpus from bytes: 0–7 opens a page, 8–15 a
// paragraph labelled fuzzLabels[b%4] on the open page (opening one if
// none is), anything else adds token fuzzTokens[b%6] to the open
// paragraph (opening an unlabelled one if none is).
func fuzzCorpus(data []byte) []*corpus.Page {
	var pages []*corpus.Page
	openPara := func(a corpus.Aspect) {
		if len(pages) == 0 {
			pages = append(pages, &corpus.Page{ID: 0})
		}
		p := pages[len(pages)-1]
		p.Paras = append(p.Paras, corpus.Paragraph{Aspect: a})
	}
	for _, b := range data {
		switch {
		case b < 8:
			pages = append(pages, &corpus.Page{ID: corpus.PageID(len(pages))})
		case b < 16:
			openPara(fuzzLabels[b%4])
		default:
			if len(pages) == 0 || len(pages[len(pages)-1].Paras) == 0 {
				openPara("")
			}
			p := pages[len(pages)-1]
			para := &p.Paras[len(p.Paras)-1]
			para.Tokens = append(para.Tokens, fuzzTokens[int(b)%len(fuzzTokens)])
		}
	}
	return pages
}

// FuzzTrainSetMatchesReference widens TestTrainSetMatchesReference to any
// tiny corpus: TrainSet over every label of the alphabet plus one no
// paragraph can carry equals the trainReference loop bit for bit.
func FuzzTrainSetMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 9, 20, 21, 10, 22, 0, 8, 23, 9})
	f.Add([]byte{9, 9, 9, 30, 31})
	f.Add([]byte{0, 1, 2, 11, 12, 40, 41, 42, 43, 44, 45, 8, 8})
	aspects := append([]corpus.Aspect{"ABSENT"}, fuzzLabels...)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesReference(t, aspects, fuzzCorpus(data))
	})
}

// BenchmarkTrainSet: the per-aspect reference loop against the one
// counting pass, every labelled aspect of the researchers test corpus.
func BenchmarkTrainSet(b *testing.B) {
	g := generated(b, synth.DomainResearchers)
	aspects, pages := g.Corpus.Aspects(), g.Corpus.Pages
	b.Run("reference", func(b *testing.B) {
		for b.Loop() {
			referenceSet(aspects, pages)
		}
	})
	b.Run("onepass", func(b *testing.B) {
		for b.Loop() {
			TrainSet(aspects, pages)
		}
	})
}
