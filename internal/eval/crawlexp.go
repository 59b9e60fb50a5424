package eval

import (
	"context"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/crawler"
	"l2q/internal/par"
)

// CrawlResult compares query-driven harvesting (L2QBAL) with the classic
// link-following focused crawler at an equal page-download budget — the
// extension experiment materializing the paper's §II claim that
// query-driven harvesting, not link traversal, is the right primitive for
// entity aspects (links encode entity locality but say nothing about which
// aspect a page covers).
type CrawlResult struct {
	Domain corpus.Domain
	// L2QF and CrawlerF are mean normalized F-scores over all aspects and
	// test entities, at the default 3 selected queries and the matching
	// crawler budget of (3+1)·topK page downloads.
	L2QF, CrawlerF float64
	// Sig is the paired significance of the difference.
	Sig Significance
	// Entities is the number of contributing (entity, aspect) pairs.
	Entities int
}

// CompareCrawler runs the budget-matched comparison on the test split.
// ctx bounds the L2QBAL harvests; a canceled run returns its error.
func (e *Env) CompareCrawler(ctx context.Context) (CrawlResult, error) {
	const nQueries = 3
	budget := (nQueries + 1) * e.Engine.TopK()
	byID := crawler.PageIndex(e.G.Corpus)

	type pair struct {
		l2q, crawl float64
		ok         bool
		err        error
	}
	out := CrawlResult{Domain: e.Cfg.Domain}
	var allPairs []pair
	for _, aspect := range e.G.Aspects {
		dm, err := e.DomainModel(aspect, -1)
		if err != nil {
			return out, err
		}
		pairs := make([]pair, len(e.TestIDs))
		par.For(len(e.TestIDs), func(i int) {
			id := e.TestIDs[i]
			entity := e.G.Corpus.Entity(id)
			relevant := e.relevantUniverse(entity, aspect)
			if len(relevant) == 0 {
				return
			}
			ideal := e.idealRun(entity, aspect, nQueries)
			y := e.Cls.YFunc(aspect)

			s := e.NewSession(entity, aspect, dm, uint64(id)+1)
			if _, err := s.RunCtx(ctx, core.NewL2QBAL(), nQueries); err != nil {
				pairs[i].err = err
				return
			}
			l2q := normalize(measure(s.Pages(), relevant), ideal[nQueries-1])

			seeds := e.Engine.SearchWithSeed(entity.SeedTokens(), nil)
			seedPages := make([]*corpus.Page, 0, len(seeds))
			for _, r := range seeds {
				seedPages = append(seedPages, r.Page)
			}
			cr := crawler.Crawl(byID, seedPages, y, crawler.Config{Budget: budget})
			crawl := normalize(measure(cr.Pages, relevant), ideal[nQueries-1])

			pairs[i] = pair{l2q: l2q.F, crawl: crawl.F, ok: true}
		})
		allPairs = append(allPairs, pairs...)
	}

	var fa, fb []float64
	for _, p := range allPairs {
		if p.err != nil {
			return out, p.err
		}
		if !p.ok {
			continue
		}
		fa = append(fa, p.l2q)
		fb = append(fb, p.crawl)
	}
	out.Entities = len(fa)
	if len(fa) == 0 {
		return out, nil
	}
	a := RunResult{Method: MethodL2QBAL, PerEntityF: fa}
	b := RunResult{Method: Method("CRAWL"), PerEntityF: fb}
	sig, err := Compare(a, b)
	if err != nil {
		return out, err
	}
	out.Sig = sig
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	out.L2QF = sum(fa) / float64(len(fa))
	out.CrawlerF = sum(fb) / float64(len(fb))
	return out, nil
}
