package core

import (
	"math"

	"l2q/internal/graph"
	"l2q/internal/types"
)

// InferOptions selects which parts of the L2Q model an inference run uses,
// matching the strategy ablations of §VI-B.
type InferOptions struct {
	// UseTemplates enables domain-aware learning through templates:
	// template vertices in the entity graph plus λ-scaled regularization
	// from the domain model (Eq. 21–22).
	UseTemplates bool
	// UseDomainCandidates extends the candidate pool with frequent
	// domain queries (§IV-C).
	UseDomainCandidates bool
	// Utilities is the set of utility families to compute. Inference is
	// demand-driven: a family that is not requested is not solved, and
	// its Inference fields stay nil. The zero value requests none (the
	// run still syncs the candidate pool and the session graph).
	Utilities Utilities
}

// individual reports whether the request reads P_E or R_E: the families
// that are solved on the entity graph, so the ones a session must keep a
// graph for (see sessionGraph).
func (opts InferOptions) individual() bool {
	return opts.Utilities&(UtilPrecision|UtilRecall) != 0
}

// Utilities is a set of utility families of the entity phase. Each family
// has its own cost — the two individual utilities are one fixpoint solve
// each, the collective ones a counting pass over the candidates — and a
// selector names exactly the families its score function reads.
type Utilities uint8

const (
	// UtilPrecision is the individual precision P_E(q) (Eq. 20): the
	// precision fixpoint over the entity graph. Fills Inference.P.
	UtilPrecision Utilities = 1 << iota
	// UtilRecall is the individual recall R_E(q) (Eq. 20): the recall
	// fixpoint over the entity graph. Fills Inference.R.
	UtilRecall
	// UtilCollective is the context-aware family over Φ ∪ {q} (§V,
	// Eq. 24–27), computed from coverage counts, domain counting priors
	// and the context state — it reads neither fixpoint. Fills
	// Inference.CollR, CollRStar and CollP.
	UtilCollective

	// UtilAll requests every family (the differential tests' setting).
	UtilAll = UtilPrecision | UtilRecall | UtilCollective
)

// Inference holds per-candidate utilities from one entity-phase run.
// Every non-nil slice is parallel to Queries; a utility family that
// InferOptions.Utilities did not request is nil.
type Inference struct {
	Queries []Query
	// P is the individual domain-aware precision P_E(q) (Eq. 20); nil
	// unless UtilPrecision was requested.
	P []float64
	// R is the individual domain-aware recall R_E(q) (Eq. 20); nil
	// unless UtilRecall was requested.
	R []float64
	// CollR, CollRStar and CollP are the collective utilities
	// R_E(Φ∪{q}), R*_E(Φ∪{q}) and P_E(Φ∪{q}) (Eq. 24–27); nil unless
	// UtilCollective was requested.
	CollR, CollRStar, CollP []float64
}

// ArgMax returns the index of the maximal finite value, breaking ties by
// query string for determinism; -1 when empty or no value is finite.
// Non-finite utilities (NaN from a degenerate ratio, ±Inf from an
// overflowed score) are skipped: every comparison against NaN is false,
// so a NaN at index 0 would otherwise win outright, and an Inf would mask
// every real candidate.
func (inf *Inference) ArgMax(vals []float64) int {
	return inf.argMaxBy(len(vals), func(i int) float64 { return vals[i] })
}

// argMaxBy is ArgMax over val(0..n-1), each evaluated once — a selector
// scores and arg-maxes its candidates in one pass, with no score slice.
func (inf *Inference) argMaxBy(n int, val func(i int) float64) int {
	best, bestV := -1, 0.0
	for i := 0; i < n; i++ {
		v := val(i)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if best < 0 || v > bestV ||
			(v == bestV && inf.Queries[i] < inf.Queries[best]) {
			best, bestV = i, v
		}
	}
	return best
}

// InferReference is the from-scratch entity-phase inference: it
// re-enumerates the candidates (CandidatesReference), rebuilds the
// reinforcement graph over the current pages and cold-solves the requested
// fixpoints, sharing no state with the path it checks. It is the
// differential-testing ground truth for Infer, mirroring
// search.Engine.SearchReference, and honours the same Utilities request.
func (s *Session) InferReference(opts InferOptions) (*Inference, error) {
	cands := s.CandidatesReference(opts.UseDomainCandidates)
	inf := &Inference{Queries: cands}
	if len(cands) == 0 {
		return inf, nil
	}

	b := s.newEntityGraph(opts, true)
	for _, p := range s.pages {
		b.addPage(p)
	}
	ords := make([]int32, len(cands))
	for i, q := range cands {
		b.addQuery(q)
		ords[i] = b.queries[q]
	}
	// Entity graphs are small: conjunctive containment against every
	// current page (domain candidates are not n-grams of P_E, so the
	// n-gram trick of the domain phase does not apply here).
	b.connect()

	if opts.Utilities&(UtilPrecision|UtilRecall) != 0 {
		var pageReg regPair
		if s.YScore != nil {
			pageReg = b.pageRegularizationScored(s.YScore)
		} else {
			pageReg = b.pageRegularization(s.Y)
		}
		if _, _, err := s.solveIndividual(inf, ords, b, opts, pageReg, nil, nil); err != nil {
			return nil, err
		}
	}
	if opts.Utilities&UtilCollective != 0 {
		s.collective(inf, ords, b)
	}
	return inf, nil
}

// newEntityGraph returns an empty builder for this session's entity graph
// under opts: template vertices and the domain counting priors are present
// only for a domain-aware (UseTemplates) inference. withGraph false makes
// the table-only form (see graphBuilder).
func (s *Session) newEntityGraph(opts InferOptions, withGraph bool) *graphBuilder {
	var rec types.Recognizer
	var dm *DomainModel
	if opts.UseTemplates {
		rec, dm = s.Rec, s.DM
	}
	b := newGraphBuilder(s.Cfg, rec, withGraph)
	b.dm = dm
	return b
}

// solveIndividual runs one fixpoint per requested individual utility —
// P_E with page + λ·P_D(t) regularization (Eq. 21), R_E with page +
// λ·R_D(t) (Eq. 22) — and projects each node-indexed solution onto the
// candidates, whose indexes in b.qs are ords. x0P and x0R are optional
// warm starts. The node-indexed solutions are returned (nil when not
// requested) so Infer can keep them as the next step's warm start.
func (s *Session) solveIndividual(inf *Inference, ords []int32, b *graphBuilder, opts InferOptions,
	pageReg regPair, x0P, x0R []float64) (prec, rcl []float64, err error) {

	project := func(u []float64) []float64 {
		out := make([]float64, len(ords))
		for i, o := range ords {
			out[i] = u[b.qs[o].node]
		}
		return out
	}
	// The domain's random-walk utilities are read only by the
	// regularization that needs them, so a recall-only request with the
	// counting estimate solves no domain fixpoint.
	if opts.Utilities&UtilPrecision != 0 {
		var tmplP map[string]float64
		if b.dm != nil {
			tmplP = b.dm.TemplateP()
		}
		reg := b.addTemplateReg(pageReg.precision, tmplP, Lambda)
		if prec, err = b.solveWarm(graph.Precision, reg, x0P); err != nil {
			return nil, nil, err
		}
		inf.P = project(prec)
	}
	if opts.Utilities&UtilRecall != 0 {
		var tmplR map[string]float64
		switch {
		case b.dm == nil:
		case s.Cfg.UseWalkRecallReg:
			tmplR = b.dm.TemplateR()
		default:
			tmplR = b.dm.TemplateRCount
		}
		reg := b.addTemplateReg(pageReg.recall, tmplR, Lambda)
		if rcl, err = b.solveWarm(graph.Recall, reg, x0R); err != nil {
			return nil, nil, err
		}
		inf.R = project(rcl)
	}
	return prec, rcl, nil
}

// collective computes the context-aware utilities of §V on a consistent
// probability scale.
//
// Eq. 26 decomposes R_E(Φ∪{q}) = R_E(Φ) + R_E(q) − ∆(Φ,q) with
// ∆ = R^(Ỹ)_E(q)·R_E(Φ). R_E(Φ) is probability-scale (its base case r0 is
// "the recall of the seed query"), so the other two terms must be too:
//
//   - R^(Ỹ)_E(q) = P(ω ∈ Ω(q) | ω ∈ Ω(Ỹ)) is fully observable — Ỹ lives on
//     the already-gathered pages — so we compute it exactly by counting:
//     the fraction of gathered relevant pages containing q. (The paper
//     routes this through the recall fixpoint, whose stationary masses are
//     diluted across the whole candidate set and would make ∆ vanish;
//     counting computes the same conditional without the scale distortion.)
//   - R_E(q) = P(ω ∈ Ω(q) | ω ∈ Ω(Y)) over the *universe* of relevant
//     pages. The gathered relevant pages are our sample of that universe,
//     and the domain model's template counting statistics are the prior
//     for what we have not seen; we blend them with pseudo-count m
//     (PriorStrength):  (n·count + m·prior)/(n + m).
//
// The Y* counterparts (for collective precision, Eq. 27) replace "relevant
// pages" with "all pages" throughout.
func (s *Session) collective(inf *Inference, ords []int32, b *graphBuilder) {
	nRel := 0
	for _, p := range s.pages {
		if s.Y(p) {
			nRel++
		}
	}
	s.collectiveCover(inf, ords, b, nRel, nil)
}

// coverage counts the gathered pages (all) and gathered relevant pages
// (rel) that contain one candidate.
type coverage struct{ all, rel int32 }

// collectiveCover is collective with the relevant-page count precomputed
// and an optional coverage source: cover, indexed like b.qs, holds the
// counts the incremental path caches during delta connection; nil
// recounts by scanning the pages (the reference behavior). ords are the
// candidates' indexes in b.qs. The domain priors come from the query
// vertex (computed once, at registration).
func (s *Session) collectiveCover(inf *Inference, ords []int32, b *graphBuilder, nRel int, cover []coverage) {
	nPages := len(s.pages)
	m := PriorStrength

	inf.CollR = make([]float64, len(ords))
	inf.CollRStar = make([]float64, len(ords))
	inf.CollP = make([]float64, len(ords))
	for i, ord := range ords {
		qv := &b.qs[ord]

		// Exact redundancy conditionals over the gathered pages.
		var c coverage
		if cover != nil {
			c = cover[ord]
		} else {
			for _, p := range s.pages {
				if p.ContainsQuery(qv.toks) {
					c.all++
					if s.Y(p) {
						c.rel++
					}
				}
			}
		}
		rTilde, rTildeStar := 0.0, 0.0
		if nRel > 0 {
			rTilde = float64(c.rel) / float64(nRel)
		}
		if nPages > 0 {
			rTildeStar = float64(c.all) / float64(nPages)
		}
		priorR, priorRStar := qv.priorR, qv.priorRStar

		// Smoothed probability-scale coverage of the candidate alone.
		// The observation count is capped: the gathered pages are a
		// *biased* sample (they were selected by past queries), so
		// growing them must not drown the domain prior — otherwise
		// unseen pockets of relevant pages (the entity's second topic)
		// become invisible exactly when the context has covered the
		// first pocket.
		rq := smoothed(rTilde, capObs(nRel), priorR, m)
		rqStar := smoothed(rTildeStar, capObs(nPages), priorRStar, m)

		// Retrieval-slot calibration: Ω(q)-containment says which
		// pages q *could* retrieve, but the engine returns only the
		// top k. A query contained in M̂ ≈ rqStar·N̂* pages delivers
		// roughly a k/M̂ share of its containment coverage per firing.
		// This is what makes entity-specific keywords beat generic
		// ones (§I): "research" is contained everywhere but wastes its
		// k slots, "parallel computing" converts containment into
		// retrieval one-for-one. Without it, universal words
		// ("homepage") maximize containment-recall while retrieving
		// nothing new.
		k := float64(s.Engine.TopK())
		share := 1.0
		if s.nStarHat > 0 && k > 0 {
			if mHat := rqStar * s.nStarHat; mHat > k {
				share = k / mHat
			}
		}

		// Backfill: the engine always returns k results, so slots the
		// query's own containment does not fill come back as seed-
		// ranked pages — new with probability (1−R*(Φ)) and relevant
		// only at base rate. Ignoring backfill makes tiny-footprint
		// junk queries look free in the Eq. 27 ratio (they seem to add
		// nothing to the denominator), and collective precision then
		// rewards exactly the queries that waste their slots.
		targetedStar := share * (rqStar - rTildeStar*s.rStarPhi)
		if targetedStar < 0 {
			targetedStar = 0
		}
		backfill := 0.0
		if k > 0 && s.nStarHat > 0 {
			slots := targetedStar * s.nStarHat / k
			if slots > 1 {
				slots = 1
			}
			backfill = k * (1 - slots) * (1 - s.rStarPhi) / s.nStarHat
		}

		// Eq. 26 and its Y* counterpart. The values are deliberately
		// NOT clamped to [0,1]: they are selection scores, and
		// clamping would collapse every strong candidate into a tie
		// at 1.0 that the lexicographic tie-break would then decide.
		inf.CollR[i] = s.rPhi + share*(rq-rTilde*s.rPhi) + backfill
		inf.CollRStar[i] = s.rStarPhi + targetedStar + backfill
		// Eq. 27: collective precision ∝ collective recall ratio.
		if inf.CollRStar[i] > 0 {
			inf.CollP[i] = inf.CollR[i] / inf.CollRStar[i]
		}
	}
}

// smoothed blends an observed coverage fraction (over n observations) with
// a prior via pseudo-count m.
func smoothed(observed float64, n int, prior float64, m float64) float64 {
	if n == 0 && m == 0 {
		return 0
	}
	return (float64(n)*observed + m*prior) / (float64(n) + m)
}

// maxObservations caps the effective sample size of the gathered-page
// evidence inside smoothed (see the comment at the call site).
const maxObservations = 5

func capObs(n int) int {
	if n > maxObservations {
		return maxObservations
	}
	return n
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
