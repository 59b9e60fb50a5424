package html

import (
	"reflect"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

// TestSiteRoundTrip renders a full synthetic corpus to HTML and ingests it
// back, checking that entities, pages, paragraph labels and tokens all
// survive the HTML boundary — the fidelity the harvesting pipeline relies
// on when it operates over rendered pages instead of in-memory structs.
func TestSiteRoundTrip(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	orig := g.Corpus

	site := RenderSite(orig)
	if len(site) != orig.NumPages()+1 {
		t.Fatalf("site has %d files, want %d", len(site), orig.NumPages()+1)
	}

	got, err := ParseSite(site, g.Tokenizer)
	if err != nil {
		t.Fatal(err)
	}
	if got.Domain != orig.Domain {
		t.Errorf("domain = %q, want %q", got.Domain, orig.Domain)
	}
	if got.NumEntities() != orig.NumEntities() {
		t.Fatalf("entities = %d, want %d", got.NumEntities(), orig.NumEntities())
	}
	if got.NumPages() != orig.NumPages() {
		t.Fatalf("pages = %d, want %d", got.NumPages(), orig.NumPages())
	}

	for _, oe := range orig.Entities {
		ge := got.Entity(oe.ID)
		if ge == nil {
			t.Fatalf("entity %d missing", oe.ID)
		}
		if ge.Name != oe.Name || ge.SeedQuery != oe.SeedQuery {
			t.Errorf("entity %d: got %q/%q, want %q/%q",
				oe.ID, ge.Name, ge.SeedQuery, oe.Name, oe.SeedQuery)
		}
		if !reflect.DeepEqual(ge.Attrs, oe.Attrs) {
			t.Errorf("entity %d attrs: got %v, want %v", oe.ID, ge.Attrs, oe.Attrs)
		}
	}

	byID := make(map[corpus.PageID]*corpus.Page, got.NumPages())
	for _, p := range got.Pages {
		byID[p.ID] = p
	}
	for _, op := range orig.Pages {
		gp := byID[op.ID]
		if gp == nil {
			t.Fatalf("page %d missing", op.ID)
		}
		if gp.Entity != op.Entity || gp.Title != op.Title {
			t.Errorf("page %d: entity/title mismatch", op.ID)
		}
		if len(gp.Paras) != len(op.Paras) {
			t.Fatalf("page %d: %d paragraphs, want %d", op.ID, len(gp.Paras), len(op.Paras))
		}
		for i := range op.Paras {
			if gp.Paras[i].Aspect != op.Paras[i].Aspect {
				t.Errorf("page %d para %d aspect = %q, want %q",
					op.ID, i, gp.Paras[i].Aspect, op.Paras[i].Aspect)
			}
			if !reflect.DeepEqual(gp.ParaTokens(i), op.ParaTokens(i)) {
				t.Errorf("page %d para %d tokens differ:\n got %v\nwant %v",
					op.ID, i, gp.ParaTokens(i), op.ParaTokens(i))
			}
		}
	}
}

func TestParseSiteErrors(t *testing.T) {
	if _, err := ParseSite(Site{}, nil); err == nil {
		t.Error("missing index should fail")
	}
	// A page referencing an entity absent from the index.
	site := Site{
		IndexPath: `<html><body><ul><li data-entity-id="1" data-seed="s" data-name="n">n</li></ul></body></html>`,
		PageHref(5): RenderPage(&corpus.Page{
			ID: 5, Entity: 99, Title: "x",
			Paras: []corpus.Paragraph{{Text: "t"}},
		}),
	}
	if _, err := ParseSite(site, &textproc.Tokenizer{}); err == nil {
		t.Error("unknown entity reference should fail")
	}
}
