package baselines

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/synth"
	"l2q/internal/template"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// trainHRReference is HR training with its own counting loop and its own
// copy of the candidate rule, sharing nothing with core.CountDomain: the
// ground truth TrainHR is held to.
func trainHRReference(cfg core.Config, c *corpus.Corpus, domainEntities []corpus.EntityID,
	y func(*corpus.Page) bool, rec types.Recognizer) (*HRModel, error) {

	var pages []*corpus.Page
	for _, id := range domainEntities {
		pages = append(pages, c.PagesOf(id)...)
	}
	if len(pages) == 0 {
		return nil, fmt.Errorf("baselines: HR training has no pages")
	}
	ngCfg := textproc.NGramConfig{MaxLen: core.MaxQueryLen, Stopwords: core.Stopwords}

	pageDF := make(map[string]int)
	relDF := make(map[string]int)
	entityDF := make(map[string]int)
	lastEntity := make(map[string]corpus.EntityID)
	for _, p := range pages {
		rel := y(p)
		for _, q := range textproc.NGrams(p.Tokens(), ngCfg) {
			pageDF[q]++
			if rel {
				relDF[q]++
			}
			if le, seen := lastEntity[q]; !seen || le != p.Entity {
				entityDF[q]++
				lastEntity[q] = p.Entity
			}
		}
	}

	type acc struct{ rel, tot int }
	tacc := make(map[string]*acc)
	for q, tot := range pageDF {
		if tot < core.MinQueryPageDF {
			continue
		}
		toks := cfg.QueryTokens(core.Query(q))
		for _, key := range template.EnumerateKeys(toks, rec) {
			a := tacc[key]
			if a == nil {
				a = &acc{}
				tacc[key] = a
			}
			a.rel += relDF[q]
			a.tot += tot
		}
	}
	m := &HRModel{TemplateHR: make(map[string]float64, len(tacc))}
	for key, a := range tacc {
		if a.tot > 0 {
			m.TemplateHR[key] = float64(a.rel) / float64(a.tot)
		}
	}

	minEnt := int(core.MinDomainEntityFrac * float64(len(domainEntities)))
	if minEnt < 2 {
		minEnt = 2
	}
	type qc struct {
		q core.Query
		n int
	}
	var cands []qc
	for q, n := range entityDF {
		if n >= minEnt && pageDF[q] >= core.MinQueryPageDF {
			cands = append(cands, qc{q: core.Query(q), n: n})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		return cands[i].q < cands[j].q
	})
	if len(cands) > core.MaxDomainCandidates {
		cands = cands[:core.MaxDomainCandidates]
	}
	m.Candidates = make([]core.Query, len(cands))
	for i, c := range cands {
		m.Candidates[i] = c.q
	}
	return m, nil
}

// TestTrainHRMatchesReference: HR trained over the domain phase's shared
// count and candidate rule equals the retained stand-alone training loop,
// for every aspect of both domains.
func TestTrainHRMatchesReference(t *testing.T) {
	for _, domain := range []corpus.Domain{synth.DomainResearchers, synth.DomainCars} {
		g, err := synth.Generate(synth.TestConfig(domain))
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Tokenizer = g.Tokenizer
		rec := types.Chain{g.KB, types.NewRegexRecognizer()}
		var ids []corpus.EntityID
		for _, e := range g.Corpus.Entities[:g.Corpus.NumEntities()/2] {
			ids = append(ids, e.ID)
		}
		for _, aspect := range g.Aspects {
			t.Run(string(domain)+"/"+string(aspect), func(t *testing.T) {
				y := func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) }
				got, err := TrainHR(cfg, g.Corpus, ids, y, rec)
				if err != nil {
					t.Fatal(err)
				}
				want, err := trainHRReference(cfg, g.Corpus, ids, y, rec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("TrainHR differs from the reference: %d candidates, %d templates; want %d, %d",
						len(got.Candidates), len(got.TemplateHR), len(want.Candidates), len(want.TemplateHR))
				}
				if len(got.TemplateHR) == 0 {
					t.Fatal("degenerate HR model (no template statistics)")
				}
			})
		}
	}
}
