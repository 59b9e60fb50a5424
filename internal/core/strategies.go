package core

import "math"

// The strategies of §VI-B/§VI-C. Constructors return stateless Selectors
// (safe to reuse across sessions):
//
//	RND          random candidate (reference point)
//	P, R         basic utility inference, no domain, no context (§III)
//	P+q, R+q     best domain *queries* used directly (entity-variation foil)
//	P+t, R+t     domain-aware via templates, no context (§IV)
//	L2QP, L2QR   full: domain + context aware (§V)
//	L2QBAL       geometric mean of collective P and R (§VI-C)

// NewRND returns the random-selection reference strategy.
func NewRND() Selector { return rndSelector{} }

type rndSelector struct{}

func (rndSelector) Name() string { return "RND" }

func (rndSelector) Select(s *Session) (Selection, bool) {
	cands, _ := s.candidateQueries(s.DM != nil)
	if len(cands) == 0 {
		return Selection{}, false
	}
	return Selection{Query: cands[s.rng.IntN(len(cands))]}, true
}

// utilitySelector covers P, R, P+t, R+t, L2QP, L2QR, L2QBAL and L2QW: an
// arg-max over one score function of the inferred utilities.
type utilitySelector struct {
	name      string
	templates bool // domain-aware
	// reads names the utility families score dereferences; Select asks
	// Infer for exactly these, so a strategy never pays for a fixpoint
	// (or a collective pass) it does not look at.
	reads Utilities
	score func(inf *Inference, i int) float64
}

func (u utilitySelector) Name() string { return u.name }

// inferOptions is the inference this strategy asks for on every step.
func (u utilitySelector) inferOptions() InferOptions {
	return InferOptions{
		UseTemplates:        u.templates,
		UseDomainCandidates: u.templates,
		Utilities:           u.reads,
	}
}

func (u utilitySelector) Select(s *Session) (Selection, bool) {
	inf, err := s.Infer(u.inferOptions())
	if err != nil {
		return Selection{}, false
	}
	best := inf.argMaxBy(len(inf.Queries), func(i int) float64 { return u.score(inf, i) })
	if best < 0 {
		return Selection{}, false
	}
	return Selection{Query: inf.Queries[best]}, true
}

func scoreP(inf *Inference, i int) float64 { return inf.P[i] }
func scoreR(inf *Inference, i int) float64 { return inf.R[i] }

// NewP returns the precision-optimizing basic strategy (no domain, no
// context).
func NewP() Selector {
	return utilitySelector{name: "P", reads: UtilPrecision, score: scoreP}
}

// NewR returns the recall-optimizing basic strategy.
func NewR() Selector {
	return utilitySelector{name: "R", reads: UtilRecall, score: scoreR}
}

// NewPT returns P+t: domain-aware via templates, not context-aware.
func NewPT() Selector {
	return utilitySelector{name: "P+t", templates: true, reads: UtilPrecision, score: scoreP}
}

// NewRT returns R+t: domain-aware via templates, not context-aware.
func NewRT() Selector {
	return utilitySelector{name: "R+t", templates: true, reads: UtilRecall, score: scoreR}
}

// NewL2QP returns the full precision-optimizing approach (domain + context).
func NewL2QP() Selector {
	return utilitySelector{name: "L2QP", templates: true, reads: UtilCollective,
		score: func(inf *Inference, i int) float64 { return inf.CollP[i] }}
}

// NewL2QR returns the full recall-optimizing approach.
func NewL2QR() Selector {
	return utilitySelector{name: "L2QR", templates: true, reads: UtilCollective,
		score: func(inf *Inference, i int) float64 { return inf.CollR[i] }}
}

// NewL2QBAL returns the balanced strategy: geometric mean of collective
// precision and recall (§VI-C; the harmonic mean is avoided because the
// probabilistic utilities have incomparable scales).
func NewL2QBAL() Selector {
	return utilitySelector{name: "L2QBAL", templates: true, reads: UtilCollective,
		score: func(inf *Inference, i int) float64 {
			p, r := inf.CollP[i], inf.CollR[i]
			if p <= 0 || r <= 0 {
				return 0
			}
			return math.Sqrt(p * r)
		}}
}

// NewL2QWeighted generalizes L2QBAL with a precision weight β ∈ (0,1):
// score = CollP^β · CollR^(1−β). The paper leaves "a more thorough and
// principled approach" to combining the two utilities as future work
// (§VI-C); this strategy is that extension — β = 0.5 recovers L2QBAL,
// larger β trades recall for precision.
func NewL2QWeighted(beta float64) Selector {
	if beta <= 0 || beta >= 1 {
		beta = 0.5
	}
	return utilitySelector{
		name: "L2QW", templates: true, reads: UtilCollective,
		score: func(inf *Inference, i int) float64 {
			p, r := inf.CollP[i], inf.CollR[i]
			if p <= 0 || r <= 0 {
				return 0
			}
			return math.Pow(p, beta) * math.Pow(r, 1-beta)
		}}
}

// domainQuerySelector implements P+q / R+q: fire the domain's individually
// best queries in order, exposing entity variation (§VI-B, Fig. 10).
type domainQuerySelector struct {
	name string
	byR  bool
}

func (d domainQuerySelector) Name() string { return d.name }

func (d domainQuerySelector) Select(s *Session) (Selection, bool) {
	if s.DM == nil {
		return Selection{}, false
	}
	var ranked []Query
	if d.byR {
		ranked = s.DM.TopQueriesByR(len(s.DM.QueryR()))
	} else {
		ranked = s.DM.TopQueriesByP(len(s.DM.QueryP()))
	}
	for _, q := range ranked {
		if _, fired := s.firedSet[q]; !fired {
			return Selection{Query: q}, true
		}
	}
	return Selection{}, false
}

// NewPQ returns P+q: domain queries ranked by precision, fired directly.
func NewPQ() Selector { return domainQuerySelector{name: "P+q"} }

// NewRQ returns R+q: domain queries ranked by recall, fired directly.
func NewRQ() Selector { return domainQuerySelector{name: "R+q", byR: true} }
