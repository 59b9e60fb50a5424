package synth

import (
	"strings"
	"testing"

	"l2q/internal/corpus"
)

// TestJunkTokensPresent verifies the page-local junk tokens exist (they
// make unguided selection pay a realistic price; see vocab commentary).
func TestJunkTokensPresent(t *testing.T) {
	for _, d := range []corpus.Domain{DomainResearchers, DomainCars} {
		g, err := Generate(Config{Domain: d, NumEntities: 10, PagesPerEntity: 20, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		junk := 0
		for _, p := range g.Corpus.Pages {
			for _, tok := range p.Tokens() {
				if strings.HasPrefix(tok, "x") && len(tok) == 7 && isHex(tok[1:]) {
					junk++
				}
			}
		}
		if junk == 0 {
			t.Errorf("domain %s has no junk tokens", d)
		}
	}
}

func isHex(s string) bool {
	for _, r := range s {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			return false
		}
	}
	return true
}

// TestIndicatorBleed: the generic RESEARCH indicator word must appear in
// TEACHING paragraphs too (the bleed that makes manual generic queries
// noisy, mirroring the real web).
func TestIndicatorBleed(t *testing.T) {
	g, err := Generate(Config{Domain: DomainResearchers, NumEntities: 30, PagesPerEntity: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bleed := 0
	for _, p := range g.Corpus.Pages {
		for i := range p.Paras {
			if p.Paras[i].Aspect != AspTeaching {
				continue
			}
			for _, tok := range p.ParaTokens(i) {
				if tok == "research" {
					bleed++
				}
			}
		}
	}
	if bleed == 0 {
		t.Fatal("no research-vocabulary bleed into TEACHING")
	}
}

// TestSynonymSplit: no single literal should cover every RESEARCH
// paragraph — synonym diversity is what keeps manual queries incomplete.
func TestSynonymSplit(t *testing.T) {
	g, err := Generate(Config{Domain: DomainResearchers, NumEntities: 30, PagesPerEntity: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	total, with := 0, 0
	for _, p := range g.Corpus.Pages {
		for i := range p.Paras {
			if p.Paras[i].Aspect != AspResearch {
				continue
			}
			total++
			for _, tok := range p.ParaTokens(i) {
				if tok == "research" {
					with++
					break
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no research paragraphs")
	}
	frac := float64(with) / float64(total)
	if frac > 0.9 {
		t.Fatalf("'research' covers %.2f of RESEARCH paragraphs — synonym split broken", frac)
	}
	if frac < 0.05 {
		t.Fatalf("'research' covers only %.2f — indicator too weak", frac)
	}
}

func TestTargetAspects(t *testing.T) {
	if len(TargetAspects(DomainResearchers)) != 7 || len(TargetAspects(DomainCars)) != 7 {
		t.Fatal("each domain must evaluate 7 aspects (Fig. 9)")
	}
	if len(TargetAspects("unknown")) != 7 {
		t.Fatal("unknown domain should default to researcher aspects")
	}
}

func TestDefaultConfigs(t *testing.T) {
	r := DefaultConfig(DomainResearchers)
	if r.NumEntities != 996 || r.PagesPerEntity != 50 {
		t.Fatalf("researcher default = %+v", r)
	}
	c := DefaultConfig(DomainCars)
	if c.NumEntities != 143 || c.PagesPerEntity != 50 {
		t.Fatalf("car default = %+v", c)
	}
}
