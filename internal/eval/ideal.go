package eval

import (
	"l2q/internal/corpus"
)

// idealRun computes the per-iteration upper bound the paper normalizes
// against (§VI-A "Evaluation methodology"): a solution that, at every
// iteration, retrieves the best possible top-k result — unseen relevant
// pages of the target entity — on top of the seed query's actual results
// (which every method shares).
//
// The paper's ideal feeds each candidate to the search engine and picks the
// one maximizing actual coverage × precision; ours is the limit of that
// process (an oracle query that retrieves exactly k unseen relevant pages),
// so it bounds the paper's ideal from above and remains method-agnostic:
// the same factor divides every method, preserving order (a better method
// is still better after normalization).
func (e *Env) idealRun(entity *corpus.Entity, aspect corpus.Aspect, nQueries int) []PR {
	relevant := e.relevantUniverse(entity, aspect)
	topK := e.Engine.TopK()

	// Seed retrieval, identical to what every session's BootstrapCtx does.
	seed := e.Cfg.Core.QueryTokens(toQuery(entity.SeedQuery))
	res := e.Engine.SearchWithSeed(seed, nil)
	seen := make(map[corpus.PageID]struct{}, len(res))
	total, hits := 0, 0
	for _, r := range res {
		if _, dup := seen[r.Page.ID]; dup {
			continue
		}
		seen[r.Page.ID] = struct{}{}
		total++
		if _, ok := relevant[r.Page.ID]; ok {
			hits++
		}
	}
	unseenRel := len(relevant) - hits

	out := make([]PR, 0, nQueries)
	for i := 0; i < nQueries; i++ {
		take := topK
		if take > unseenRel {
			take = unseenRel
		}
		hits += take
		total += take
		unseenRel -= take
		pr := PR{}
		if len(relevant) > 0 {
			pr.Recall = float64(hits) / float64(len(relevant))
		}
		if total > 0 {
			pr.Precision = float64(hits) / float64(total)
		}
		out = append(out, pr)
	}
	return out
}
