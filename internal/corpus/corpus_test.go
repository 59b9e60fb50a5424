package corpus

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"l2q/internal/textproc"
)

func mkPara(aspect Aspect, words ...string) Paragraph {
	return Paragraph{Text: textproc.JoinQuery(words), Tokens: words, Aspect: aspect}
}

func buildTestCorpus(t *testing.T) *Corpus {
	t.Helper()
	c := New("researchers")
	if err := c.AddEntity(&Entity{ID: 1, Domain: "researchers", Name: "Marc Snir", SeedQuery: "marc snir uiuc"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddEntity(&Entity{ID: 2, Domain: "researchers", Name: "Philip Yu", SeedQuery: "philip yu uic"}); err != nil {
		t.Fatal(err)
	}
	p1 := &Page{ID: 10, Entity: 1, URL: "http://a", Title: "Snir research", Paras: []Paragraph{
		mkPara("RESEARCH", "research", "on", "parallel", "and", "hpc", "systems"),
		mkPara("", "visit", "him", "at", "siebel", "center"),
	}}
	p2 := &Page{ID: 11, Entity: 2, URL: "http://b", Title: "Yu research", Paras: []Paragraph{
		mkPara("RESEARCH", "data mining", "papers", "in", "tkde"),
	}}
	for _, p := range []*Page{p1, p2} {
		if err := c.AddPage(p); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestCorpusBasics(t *testing.T) {
	c := buildTestCorpus(t)
	if c.NumEntities() != 2 || c.NumPages() != 2 {
		t.Fatalf("entities=%d pages=%d", c.NumEntities(), c.NumPages())
	}
	if e := c.Entity(1); e == nil || e.Name != "Marc Snir" {
		t.Fatalf("Entity(1) = %+v", e)
	}
	if got := len(c.PagesOf(1)); got != 1 {
		t.Fatalf("PagesOf(1) len = %d", got)
	}
	if got := c.Entity(1).SeedTokens(); !reflect.DeepEqual(got, []textproc.Token{"marc", "snir", "uiuc"}) {
		t.Fatalf("SeedTokens = %v", got)
	}
}

func TestCorpusDuplicateAndOrphans(t *testing.T) {
	c := New("d")
	if err := c.AddEntity(&Entity{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddEntity(&Entity{ID: 1}); err == nil {
		t.Error("duplicate entity accepted")
	}
	if err := c.AddPage(&Page{ID: 1, Entity: 99}); err == nil {
		t.Error("orphan page accepted")
	}
}

func TestPageTokensAndContainment(t *testing.T) {
	c := buildTestCorpus(t)
	p := c.PagesOf(1)[0]
	toks := p.Tokens()
	if len(toks) != 11 {
		t.Fatalf("Tokens len = %d, want 11", len(toks))
	}
	if !p.HasToken("hpc") || p.HasToken("tkde") {
		t.Error("HasToken wrong")
	}
	if !p.ContainsQuery([]textproc.Token{"parallel", "hpc"}) {
		t.Error("conjunctive containment should hold")
	}
	if p.ContainsQuery([]textproc.Token{"parallel", "tkde"}) {
		t.Error("containment must require all tokens")
	}
	if p.ContainsQuery(nil) {
		t.Error("empty query must not match")
	}
}

func TestAspectFraction(t *testing.T) {
	c := buildTestCorpus(t)
	p := c.PagesOf(1)[0]
	if got := p.AspectFraction("RESEARCH"); got != 0.5 {
		t.Errorf("AspectFraction = %v, want 0.5", got)
	}
	empty := &Page{}
	if got := empty.AspectFraction("RESEARCH"); got != 0 {
		t.Errorf("empty page fraction = %v", got)
	}
}

func TestStatsAndAspects(t *testing.T) {
	c := buildTestCorpus(t)
	s := c.ComputeStats()
	if s.Entities != 2 || s.Pages != 2 || s.Paragraphs != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ParasByAspect["RESEARCH"] != 2 {
		t.Fatalf("RESEARCH paras = %d", s.ParasByAspect["RESEARCH"])
	}
	if got := c.Aspects(); !reflect.DeepEqual(got, []Aspect{"RESEARCH"}) {
		t.Fatalf("Aspects = %v", got)
	}
}

func TestSubset(t *testing.T) {
	c := buildTestCorpus(t)
	sub := c.Subset([]EntityID{2, 99})
	if sub.NumEntities() != 1 || sub.NumPages() != 1 {
		t.Fatalf("subset entities=%d pages=%d", sub.NumEntities(), sub.NumPages())
	}
	if sub.Entity(2) == nil || sub.Entity(1) != nil {
		t.Fatal("subset membership wrong")
	}
}

// TestJSONRoundTrip: the inspection dump (WriteJSON — `l2qgen -o x.json`)
// holds everything the corpus does. Nothing in the program reads it back,
// so the way back is encoding/json into the dump's own schema.
func TestJSONRoundTrip(t *testing.T) {
	c := buildTestCorpus(t)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back wireCorpus
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Domain != c.Domain || len(back.Entities) != c.NumEntities() || len(back.Pages) != c.NumPages() {
		t.Fatalf("dump holds %v/%d/%d, corpus %v/%d/%d",
			back.Domain, len(back.Entities), len(back.Pages), c.Domain, c.NumEntities(), c.NumPages())
	}
	for i, e := range c.Entities {
		be := back.Entities[i]
		if e.ID != be.ID || e.Name != be.Name || e.SeedQuery != be.SeedQuery {
			t.Fatalf("entity %d mismatch: %+v vs %+v", i, e, be)
		}
	}
	for i, p := range c.Pages {
		bp := back.Pages[i]
		if p.ID != bp.ID || p.Entity != bp.Entity || p.Title != bp.Title || len(p.Paras) != len(bp.Paras) {
			t.Fatalf("page %d mismatch", i)
		}
		for j := range p.Paras {
			if p.Paras[j].Aspect != bp.Paras[j].Aspect || p.Paras[j].Text != bp.Paras[j].Text ||
				!reflect.DeepEqual(p.ParaTokens(j), bp.Paras[j].Tokens) {
				t.Fatalf("page %d para %d mismatch", i, j)
			}
		}
	}
}
