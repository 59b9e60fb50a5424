package synth

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"l2q/internal/corpus"
	"l2q/internal/search"
)

func TestGenerateResearchersSmall(t *testing.T) {
	g, err := Generate(TestConfig(DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	c := g.Corpus
	if c.NumEntities() != 24 {
		t.Fatalf("entities = %d", c.NumEntities())
	}
	if c.NumPages() != 24*16 {
		t.Fatalf("pages = %d", c.NumPages())
	}
	for _, e := range c.Entities {
		if e.SeedQuery == "" {
			t.Fatalf("entity %d has empty seed", e.ID)
		}
		pages := c.PagesOf(e.ID)
		if len(pages) != 16 {
			t.Fatalf("entity %d has %d pages", e.ID, len(pages))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := TestConfig(DomainResearchers)
	g1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Corpus.NumPages() != g2.Corpus.NumPages() {
		t.Fatal("page counts differ")
	}
	for i := range g1.Corpus.Pages {
		a, b := g1.Corpus.Pages[i], g2.Corpus.Pages[i]
		if a.Title != b.Title || len(a.Paras) != len(b.Paras) {
			t.Fatalf("page %d differs", i)
		}
		for j := range a.Paras {
			if a.Paras[j].Text != b.Paras[j].Text {
				t.Fatalf("page %d para %d differs:\n%s\n%s", i, j, a.Paras[j].Text, b.Paras[j].Text)
			}
		}
	}
}

func TestSeedTokensOnEveryPage(t *testing.T) {
	for _, domain := range []corpus.Domain{DomainResearchers, DomainCars} {
		g, err := Generate(TestConfig(domain))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Corpus.Entities {
			seed := g.Tokenizer.Tokenize(e.SeedQuery)
			for _, p := range g.Corpus.PagesOf(e.ID) {
				if !p.ContainsQuery(seed) {
					t.Fatalf("domain %s entity %q page %d misses seed tokens %v",
						domain, e.Name, p.ID, seed)
				}
			}
		}
	}
}

func TestEveryTargetAspectHasRelevantPages(t *testing.T) {
	for _, domain := range []corpus.Domain{DomainResearchers, DomainCars} {
		g, err := Generate(TestConfig(domain))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Corpus.Entities {
			for _, a := range g.Aspects {
				found := false
				for _, p := range g.Corpus.PagesOf(e.ID) {
					if p.AspectFraction(a) >= 0.3 {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("domain %s entity %q has no page for aspect %s", domain, e.Name, a)
				}
			}
		}
	}
}

func TestAspectFrequencySkew(t *testing.T) {
	g, err := Generate(Config{Domain: DomainResearchers, NumEntities: 40, PagesPerEntity: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	stats := g.Corpus.ComputeStats()
	research := stats.ParasByAspect[AspResearch]
	employment := stats.ParasByAspect[AspEmployment]
	if research <= 3*employment {
		t.Fatalf("expected RESEARCH ≫ EMPLOYMENT, got %d vs %d", research, employment)
	}
}

func TestEntityVariation(t *testing.T) {
	// Two entities should have mostly different topic sets — the premise
	// behind templates (§IV-A).
	rng := rand.New(rand.NewPCG(1, 2))
	same := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		p1 := newResearcherProfile(corpus.EntityID(2*i), rng)
		p2 := newResearcherProfile(corpus.EntityID(2*i+1), rng)
		t1 := map[string]bool{}
		for _, x := range p1.Fields["topic"] {
			t1[x] = true
		}
		for _, x := range p2.Fields["topic"] {
			if t1[x] {
				same++
				break
			}
		}
	}
	if same > trials/2 {
		t.Fatalf("topic overlap too common: %d/%d trials", same, trials)
	}
}

func TestCarPairsCoverPaperScale(t *testing.T) {
	if n := len(carPairs()); n < 143 {
		t.Fatalf("car (make,model) pairs = %d, need ≥ 143", n)
	}
}

func TestKBRecognizesGrammarSlots(t *testing.T) {
	g, err := Generate(TestConfig(DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"hpc", "ijhpca", "turing", "ibm", "phd"} {
		if got := g.KB.TypesOf(w); len(got) == 0 {
			t.Errorf("KB misses %q", w)
		}
	}
	// Phrases must be merged into single tokens by the shared tokenizer.
	toks := g.Tokenizer.Tokenize("his data mining papers at university of illinois")
	joined := strings.Join(toks, "|")
	if !strings.Contains(joined, "data mining") || !strings.Contains(joined, "university of illinois") {
		t.Errorf("phrase merging failed: %v", toks)
	}
}

func TestExpandUnknownSlotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown slot")
		}
	}()
	rng := rand.New(rand.NewPCG(1, 1))
	prof := newResearcherProfile(0, rng)
	names := slotNames{ids: make(map[string]int)}
	tmpl := names.parse("{nosuchslot}")
	f := filler{rng: rng, build: true}
	f.setProfile(prof, &names, nil)
	f.sentence(&tmpl)
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Domain: "bogus", NumEntities: 1, PagesPerEntity: 1}); err == nil {
		t.Error("unknown domain accepted")
	}
	if _, err := Generate(Config{Domain: DomainResearchers}); err == nil {
		t.Error("zero sizes accepted")
	}
}

func TestSeedQueriesUnique(t *testing.T) {
	g, err := Generate(Config{Domain: DomainResearchers, NumEntities: 200, PagesPerEntity: 7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range g.Corpus.Entities {
		if seen[e.SeedQuery] {
			t.Fatalf("duplicate seed query %q", e.SeedQuery)
		}
		seen[e.SeedQuery] = true
	}
}

// TestGenerateKeepMatchesFull: a corpus generated under a Keep predicate is
// the unfiltered corpus minus the unkept pages, and nothing else differs —
// an unkept page consumes exactly the random draws it always did, so every
// kept page (text, tokens, aspects, links), the entity table, the KB and
// the lexicon come out identical. That is what lets each node of a cluster
// generate only its own partitions from the shared corpus flags.
func TestGenerateKeepMatchesFull(t *testing.T) {
	ring := search.NewRing(3, 2, 0)
	predicates := map[string]func(corpus.PageID) bool{
		"ring node 1 of 3":  func(id corpus.PageID) bool { return ring.Holds(1, id) },
		"every third page":  func(id corpus.PageID) bool { return id%3 == 0 },
		"nothing (a coord)": func(corpus.PageID) bool { return false },
	}
	for _, domain := range []corpus.Domain{DomainResearchers, DomainCars} {
		cfg := TestConfig(domain)
		full, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		byID := make(map[corpus.PageID]*corpus.Page, full.Corpus.NumPages())
		for _, p := range full.Corpus.Pages {
			byID[p.ID] = p
		}
		for name, keep := range predicates {
			cfg.Keep = keep
			got, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for id := range byID {
				if keep(id) {
					want++
				}
			}
			if got.Corpus.NumPages() != want {
				t.Fatalf("%s/%s: kept %d pages, predicate selects %d of %d", domain, name, got.Corpus.NumPages(), want, len(byID))
			}
			if want == len(byID) {
				t.Fatalf("%s/%s: predicate keeps everything; the test proves nothing", domain, name)
			}
			for _, p := range got.Corpus.Pages {
				ref := byID[p.ID]
				if !keep(p.ID) {
					t.Fatalf("%s/%s: page %d kept against the predicate", domain, name, p.ID)
				}
				if p.Entity != ref.Entity || p.URL != ref.URL || p.Title != ref.Title ||
					!reflect.DeepEqual(p.Paras, ref.Paras) || !reflect.DeepEqual(p.Links, ref.Links) ||
					!reflect.DeepEqual(p.Tokens(), ref.Tokens()) {
					t.Fatalf("%s/%s: page %d differs from the unfiltered run:\n got %+v\nwant %+v", domain, name, p.ID, p, ref)
				}
			}
			if !reflect.DeepEqual(got.Corpus.Entities, full.Corpus.Entities) {
				t.Errorf("%s/%s: entity table differs", domain, name)
			}
			if !reflect.DeepEqual(got.KB, full.KB) || !reflect.DeepEqual(got.Lexicon, full.Lexicon) {
				t.Errorf("%s/%s: KB or lexicon differs", domain, name)
			}
		}
	}
}

// BenchmarkGenerateAllocs is the generator's allocation count the CI gate
// (scripts/alloc_gate.sh) pins: one TestConfig researcher collection,
// entities, pages, text and links, nothing tokenized.
func BenchmarkGenerateAllocs(b *testing.B) {
	cfg := TestConfig(DomainResearchers)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPageTextOneString: a generated page's paragraphs are consecutive
// pieces of one string, copied out of the generator's buffer at its
// length, so no buffer capacity stays reachable from a page.
func TestPageTextOneString(t *testing.T) {
	g, err := Generate(TestConfig(DomainCars))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range g.Corpus.Pages {
		for i := 1; i < len(p.Paras); i++ {
			prev, cur := p.Paras[i-1].Text, p.Paras[i].Text
			if unsafe.Pointer(unsafe.StringData(cur)) != unsafe.Add(unsafe.Pointer(unsafe.StringData(prev)), len(prev)) {
				t.Fatalf("page %d: paragraph %d does not follow paragraph %d in one string", p.ID, i, i-1)
			}
		}
	}
}
