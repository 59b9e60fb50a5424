package crf

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Example is one training sequence: per-position sparse features and gold
// labels (same length).
type Example struct {
	Feats  [][]int
	Labels []Label
}

// The SGD settings Train uses; they converge on paragraph-labeling
// workloads within a few passes.
const (
	trainEpochs = 8    // passes over the training set
	trainRate   = 0.2  // initial step size; it decays as 1/(1+t·trainDecay)
	trainDecay  = 1e-4 // learning-rate decay per processed sequence
	trainL2     = 0.1  // regularization strength (per dataset, not per example)
	trainSeed   = 1    // drives the shuffling order
)

// Train fits a linear-chain CRF by stochastic gradient ascent on the
// L2-regularized conditional log-likelihood. numFeats is the size of the
// sparse feature space; every feature id in the examples must be in
// [0, numFeats). It returns an error on malformed input.
func Train(examples []Example, numFeats int) (*Model, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("crf: no training sequences")
	}
	if numFeats <= 0 {
		return nil, fmt.Errorf("crf: numFeats must be positive, got %d", numFeats)
	}
	for i, ex := range examples {
		if len(ex.Feats) == 0 || len(ex.Feats) != len(ex.Labels) {
			return nil, fmt.Errorf("crf: example %d has %d positions and %d labels",
				i, len(ex.Feats), len(ex.Labels))
		}
		for _, feats := range ex.Feats {
			for _, f := range feats {
				if f < 0 || f >= numFeats {
					return nil, fmt.Errorf("crf: example %d has feature %d outside [0,%d)", i, f, numFeats)
				}
			}
		}
		for _, l := range ex.Labels {
			if l >= NumLabels {
				return nil, fmt.Errorf("crf: example %d has label %d", i, l)
			}
		}
	}
	m := &Model{numFeats: numFeats}
	for l := 0; l < NumLabels; l++ {
		m.state[l] = make([]float64, numFeats)
	}

	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewPCG(trainSeed, trainSeed^0xda3e39cb94b95bdb))
	l2PerStep := trainL2 / float64(len(examples))

	t := 0
	for epoch := 0; epoch < trainEpochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, ei := range order {
			eta := trainRate / (1 + trainDecay*float64(t))
			m.sgdStep(&examples[ei], eta, l2PerStep)
			t++
		}
	}
	return m, nil
}

// sgdStep applies one gradient step for a single sequence: empirical
// feature counts minus model-expected counts (from forward–backward),
// minus the L2 pull toward zero.
func (m *Model) sgdStep(ex *Example, eta, l2 float64) {
	lat := m.lattice(ex.Feats)
	fwd, bwd, logZ := m.forwardBackward(lat)
	n := len(ex.Feats)

	// Position marginals q[i][l] = P(yᵢ=l | x).
	for i := 0; i < n; i++ {
		var q [NumLabels]float64
		for l := Label(0); l < NumLabels; l++ {
			q[l] = math.Exp(fwd[i][l] + bwd[i][l] - logZ)
		}
		for l := Label(0); l < NumLabels; l++ {
			// Gradient of emission terms: 1{yᵢ=l} − q[l].
			g := -q[l]
			if ex.Labels[i] == l {
				g += 1
			}
			if g == 0 {
				continue
			}
			step := eta * g
			m.bias[l] += step
			w := m.state[l]
			for _, f := range ex.Feats[i] {
				w[f] += step
			}
		}
	}

	// Start weights.
	for l := Label(0); l < NumLabels; l++ {
		g := -math.Exp(fwd[0][l] + bwd[0][l] - logZ)
		if ex.Labels[0] == l {
			g += 1
		}
		m.start[l] += eta * g
	}

	// Transition marginals P(yᵢ₋₁=a, yᵢ=b | x). The marginals must be
	// computed against the pre-step weights, so accumulate into a local
	// gradient and apply once.
	trans := m.trans
	var transGrad [NumLabels][NumLabels]float64
	for i := 1; i < n; i++ {
		for a := Label(0); a < NumLabels; a++ {
			for b := Label(0); b < NumLabels; b++ {
				p := math.Exp(fwd[i-1][a] + trans[a][b] + lat[i][b] + bwd[i][b] - logZ)
				g := -p
				if ex.Labels[i-1] == a && ex.Labels[i] == b {
					g += 1
				}
				transGrad[a][b] += g
			}
		}
	}
	for a := Label(0); a < NumLabels; a++ {
		for b := Label(0); b < NumLabels; b++ {
			m.trans[a][b] += eta * transGrad[a][b]
		}
	}

	// L2 shrinkage (dense part kept cheap: biases, start, transitions are
	// tiny; sparse weights shrink lazily only where touched this step —
	// an approximation that keeps steps O(active features)).
	if l2 > 0 {
		shrink := eta * l2
		for l := Label(0); l < NumLabels; l++ {
			m.bias[l] -= shrink * m.bias[l]
			m.start[l] -= shrink * m.start[l]
			for b := Label(0); b < NumLabels; b++ {
				m.trans[l][b] -= shrink * m.trans[l][b]
			}
			w := m.state[l]
			for i := 0; i < n; i++ {
				for _, f := range ex.Feats[i] {
					w[f] -= shrink * w[f]
				}
			}
		}
	}
}

// RegularizedLogLikelihood returns the training objective over a dataset:
// Σ log P(y|x) − (λ/2)‖w‖². Exposed for tests and convergence monitoring.
func (m *Model) RegularizedLogLikelihood(examples []Example, l2 float64) float64 {
	ll := 0.0
	for i := range examples {
		ll += m.LogLikelihood(examples[i].Feats, examples[i].Labels)
	}
	norm := 0.0
	for l := 0; l < NumLabels; l++ {
		norm += m.bias[l]*m.bias[l] + m.start[l]*m.start[l]
		for b := 0; b < NumLabels; b++ {
			norm += m.trans[l][b] * m.trans[l][b]
		}
		for _, w := range m.state[l] {
			norm += w * w
		}
	}
	return ll - l2/2*norm
}
