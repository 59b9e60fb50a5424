package core

import (
	"l2q/internal/template"
	"l2q/internal/textproc"
	"l2q/internal/types"
)

// candidateFacts are the facts about a candidate query that no session
// state can change: they follow from the query string, the tokenizer, the
// recognizer and the domain model alone. graphBuilder.addQuery stores
// them on the query vertex, so they are computed once per vertex instead
// of once per step — and for a domain model's own Candidates once per
// model (DomainModel.candidateFactsFor).
type candidateFacts struct {
	// toks is Config.QueryTokens(q).
	toks []textproc.Token
	// keys are the query's template keys (template.EnumerateKeys); nil
	// without a recognizer.
	keys []string
	// priorR and priorRStar are the domain counting priors of the
	// collective utilities (DomainModel.countingPrior); zero without a
	// domain model.
	priorR, priorRStar float64
}

// computeFacts derives a query's candidateFacts from scratch. rec and dm
// may each be nil.
func computeFacts(cfg Config, rec types.Recognizer, dm *DomainModel, q Query) candidateFacts {
	f := candidateFacts{toks: cfg.QueryTokens(q)}
	if rec != nil {
		f.keys = template.EnumerateKeys(f.toks, rec)
	}
	if dm != nil {
		f.priorR, f.priorRStar = dm.countingPrior(q, f.keys)
	}
	return f
}

// factsOf returns q's candidateFacts: the domain model's shared copy when
// q is one of its Candidates, a fresh computation otherwise.
func (b *graphBuilder) factsOf(q Query) candidateFacts {
	if f, ok := b.shared[q]; ok {
		return f
	}
	return computeFacts(b.cfg, b.rec, b.dm, q)
}

// countingPrior returns the probability-scale domain priors R_D(q) and
// R*_D(q) of the collective utilities (§V): the query's own domain
// coverage when it is a transferable domain query, otherwise the mean
// per-instantiation coverage of its templates (keys), zero when the
// domain has seen neither.
func (dm *DomainModel) countingPrior(q Query, keys []string) (priorR, priorRStar float64) {
	if v, ok := dm.QueryRCount[q]; ok {
		return v, dm.QueryRStarCount[q]
	}
	n := 0
	for _, key := range keys {
		if v, ok := dm.TemplateRCount[key]; ok {
			priorR += v
			priorRStar += dm.TemplateRStarCount[key]
			n++
		}
	}
	if n > 0 {
		priorR /= float64(n)
		priorRStar /= float64(n)
	}
	return priorR, priorRStar
}

// sharedCandidateFacts is one DomainModel's table of candidateFacts for
// its Candidates, valid for the tokenizer and recognizer it was built
// with. It holds at most len(Candidates) ≤ Config.MaxDomainCandidates
// entries, lives as long as the model, and is read-only once built, so
// concurrent sessions share it without locking.
type sharedCandidateFacts struct {
	tok     *textproc.Tokenizer
	rec     types.Recognizer
	byQuery map[Query]candidateFacts
}

// candidateFactsFor returns the shared candidateFacts of dm.Candidates
// under cfg's tokenizer and rec. The first caller builds the table; every
// later caller with the same tokenizer and recognizer — every session of
// one System — reuses it. A caller with a different pair gets nil and
// computes its facts per session, exactly as for page n-grams.
func (dm *DomainModel) candidateFactsFor(cfg Config, rec types.Recognizer) map[Query]candidateFacts {
	dm.sharedMu.Lock()
	defer dm.sharedMu.Unlock()
	if dm.shared == nil {
		byQuery := make(map[Query]candidateFacts, len(dm.Candidates))
		for _, q := range dm.Candidates {
			byQuery[q] = computeFacts(cfg, rec, dm, q)
		}
		dm.shared = &sharedCandidateFacts{tok: cfg.Tokenizer, rec: rec, byQuery: byQuery}
	}
	if dm.shared.tok != cfg.Tokenizer || !types.Same(dm.shared.rec, rec) {
		return nil
	}
	return dm.shared.byQuery
}
