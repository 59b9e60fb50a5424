package graph

import (
	"fmt"
	"math"
)

// Mode selects which utility the solver computes.
type Mode uint8

// Solver modes: probabilistic precision (backward walk) or recall
// (forward walk).
const (
	Precision Mode = iota
	Recall
)

func (m Mode) String() string {
	if m == Precision {
		return "precision"
	}
	return "recall"
}

// DefaultAlpha is the restart / regularization parameter α of Eq. 13.
// The paper sets α = 0.15, "a typical value robust to random walks on
// most graphs" (§VI-A "Settings").
const DefaultAlpha = 0.15

// Problem describes one utility-inference fixpoint.
type Problem struct {
	G *Graph
	// Mode selects precision or recall propagation.
	Mode Mode
	// Alpha is the restart probability; DefaultAlpha if zero.
	Alpha float64
	// Reg is the utility regularization Û indexed by NodeID (P̂ or R̂,
	// Eq. 11–12 and 21–22). Missing regularization is zero.
	Reg []float64
	// Tol is the L∞ convergence tolerance (default 1e-10).
	Tol float64
	// MaxIter bounds the iterations (default 200; the paper observes
	// convergence in ~50).
	MaxIter int
	// X0, when non-nil, is the warm-start iterate: the iteration begins
	// at X0 instead of at Reg. The fixpoint is unique and the map is a
	// contraction, so the converged result is independent of the start —
	// a warm start only changes how many iterations convergence takes.
	// X0 may be shorter than the node count (the graph grew since the
	// previous solve); missing entries start at Reg, the cold-start
	// value. Entries beyond the node count are ignored.
	X0 []float64
}

// Result carries the solved utilities and convergence diagnostics.
type Result struct {
	U          []float64
	Iterations int
	Converged  bool
}

// Solve runs the damped fixpoint iteration of Eq. 13 — the paper's
// "standard iterative updating", one synchronous (Jacobi) sweep per
// iteration — until convergence.
// It returns an error if the problem is malformed; numeric iteration
// itself cannot fail (the map is a (1−α)-contraction in L∞ for precision
// and in L1 for recall, so it always converges given enough iterations).
func Solve(p Problem) (Result, error) {
	if p.G == nil {
		return Result{}, fmt.Errorf("graph: nil graph")
	}
	n := p.G.NumNodes()
	if len(p.Reg) != n {
		return Result{}, fmt.Errorf("graph: regularization length %d != %d nodes", len(p.Reg), n)
	}
	alpha := p.Alpha
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if alpha <= 0 || alpha >= 1 {
		return Result{}, fmt.Errorf("graph: alpha %v outside (0,1)", alpha)
	}
	tol := p.Tol
	if tol == 0 {
		tol = 1e-10
	}
	maxIter := p.MaxIter
	if maxIter == 0 {
		maxIter = 200
	}

	x := make([]float64, n)
	next := make([]float64, n)
	copy(x, p.Reg) // cold start at the regularization
	if p.X0 != nil {
		copy(x, p.X0) // warm start; tail (new nodes) stays at Reg
	}

	var iter int
	converged := false
	for iter = 1; iter <= maxIter; iter++ {
		if p.Mode == Precision {
			stepPrecision(p.G, alpha, p.Reg, x, next)
		} else {
			stepRecall(p.G, alpha, p.Reg, x, next)
		}
		var delta float64
		for i := range x {
			if d := math.Abs(next[i] - x[i]); d > delta {
				delta = d
			}
		}
		x, next = next, x
		if delta < tol {
			converged = true
			break
		}
	}
	return Result{U: x, Iterations: iter, Converged: converged}, nil
}

// stepPrecision applies one synchronous backward-walk update:
//
//	P(p) = (1−α)·Σ_q [Wpq/Σ_{q'∈N(p)}Wpq']·P(q) + α·P̂(p)   (Eq. 8)
//	P(q) = (1−α)·avg( Σ_p [Wpq/Σ_{p'∈N(q)}Wp'q]·P(p),        (Eq. 6)
//	                  Σ_t [Wqt/Σ_{t'∈NT(q)}Wqt']·P(t) ) + α·P̂(q)  (Eq. 17)
//	P(t) = (1−α)·Σ_q [Wqt/Σ_{q'∈N(t)}Wq't]·P(q) + α·P̂(t)    (Eq. 15)
func stepPrecision(g *Graph, alpha float64, reg, x, out []float64) {
	oneMinus := 1 - alpha
	for id := range g.kinds {
		v := NodeID(id)
		var from float64
		switch g.kinds[id] {
		case KindPage:
			if tot := g.totPQPage[id]; tot > 0 {
				s := 0.0
				for _, e := range g.pqByPage[v] {
					s += e.w * x[e.to]
				}
				from = s / tot
			}
		case KindQuery:
			sides, acc := 0, 0.0
			if tot := g.totPQQuery[id]; tot > 0 {
				s := 0.0
				for _, e := range g.pqByQuery[v] {
					s += e.w * x[e.to]
				}
				acc += s / tot
				sides++
			}
			if tot := g.totQTQuery[id]; tot > 0 {
				s := 0.0
				for _, e := range g.qtByQuery[v] {
					s += e.w * x[e.to]
				}
				acc += s / tot
				sides++
			}
			if sides > 0 {
				from = acc / float64(sides)
			}
		case KindTemplate:
			if tot := g.totQTTempl[id]; tot > 0 {
				s := 0.0
				for _, e := range g.qtByTempl[v] {
					s += e.w * x[e.to]
				}
				from = s / tot
			}
		}
		out[id] = oneMinus*from + alpha*reg[id]
	}
}

// stepRecall applies one synchronous forward-walk update, where every
// sender divides its recall among receivers:
//
//	R(q) = (1−α)·avg( Σ_p [Wpq/Σ_{q'∈N(p)}Wpq']·R(p),        (Eq. 7)
//	                  Σ_t [Wqt/Σ_{q'∈N(t)}Wq't]·R(t) ) + α·R̂(q)  (Eq. 18)
//	R(p) = (1−α)·Σ_q [Wpq/Σ_{p'∈N(q)}Wp'q]·R(q) + α·R̂(p)    (Eq. 9)
//	R(t) = (1−α)·Σ_q [Wqt/Σ_{t'∈NT(q)}Wqt']·R(q) + α·R̂(t)   (Eq. 16)
func stepRecall(g *Graph, alpha float64, reg, x, out []float64) {
	oneMinus := 1 - alpha
	for id := range g.kinds {
		v := NodeID(id)
		var from float64
		switch g.kinds[id] {
		case KindPage:
			// Each query q divides R(q) among the pages it retrieves.
			s := 0.0
			for _, e := range g.pqByPage[v] {
				if tot := g.totPQQuery[e.to]; tot > 0 {
					s += e.w / tot * x[e.to]
				}
			}
			from = s
		case KindQuery:
			sides, acc := 0, 0.0
			if len(g.pqByQuery[v]) > 0 {
				s := 0.0
				for _, e := range g.pqByQuery[v] {
					if tot := g.totPQPage[e.to]; tot > 0 {
						s += e.w / tot * x[e.to]
					}
				}
				acc += s
				sides++
			}
			if len(g.qtByQuery[v]) > 0 {
				s := 0.0
				for _, e := range g.qtByQuery[v] {
					if tot := g.totQTTempl[e.to]; tot > 0 {
						s += e.w / tot * x[e.to]
					}
				}
				acc += s
				sides++
			}
			if sides > 0 {
				from = acc / float64(sides)
			}
		case KindTemplate:
			// Each query divides its recall among its templates.
			s := 0.0
			for _, e := range g.qtByTempl[v] {
				if tot := g.totQTQuery[e.to]; tot > 0 {
					s += e.w / tot * x[e.to]
				}
			}
			from = s
		}
		out[id] = oneMinus*from + alpha*reg[id]
	}
}
