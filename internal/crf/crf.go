// Package crf implements a binary linear-chain conditional random field
// over paragraph sequences.
//
// The paper trains "one classifier for each Y based on conditional random
// fields, which can classify a paragraph as relevant to Y or not" (§VI-A
// "Entity aspects"). The chain structure matters for pages: paragraphs
// about the same aspect come in runs, so the label of a paragraph is
// informative about its neighbors — exactly what the transition weights of
// a linear-chain CRF capture and what independent per-paragraph classifiers
// (internal/classify's Naive Bayes) ignore.
//
// The model is standard: per-position state features (sparse, from the
// paragraph's tokens) and label-pair transition features, trained by
// maximizing the L2-regularized conditional log-likelihood with
// forward–backward gradients (train.go), decoded with Viterbi.
package crf

import "math"

// NumLabels is fixed: the relevance CRF is binary (0 = irrelevant,
// 1 = relevant), as in the paper.
const NumLabels = 2

// Label is a paragraph label: 0 or 1.
type Label uint8

// Model is a trained linear-chain CRF. Create with Train; the zero value
// is not usable. A Model is immutable and safe for concurrent use.
type Model struct {
	// state[l][f] is the weight of sparse feature f under label l.
	state [NumLabels][]float64
	// bias[l] is the per-label bias.
	bias [NumLabels]float64
	// trans[a][b] is the weight of transitioning from label a to b.
	trans [NumLabels][NumLabels]float64
	// start[l] is the weight of starting the sequence with label l.
	start [NumLabels]float64
	// numFeats is the size of the sparse feature space.
	numFeats int
}

// emission returns the unnormalized log-score of label l at a position
// with the given active features. Features out of range (unseen at
// training time) contribute nothing.
func (m *Model) emission(feats []int, l Label) float64 {
	s := m.bias[l]
	w := m.state[l]
	for _, f := range feats {
		if f >= 0 && f < m.numFeats {
			s += w[f]
		}
	}
	return s
}

// lattice precomputes the emission scores of a sequence: lat[i][l].
func (m *Model) lattice(seq [][]int) [][NumLabels]float64 {
	lat := make([][NumLabels]float64, len(seq))
	for i, feats := range seq {
		for l := Label(0); l < NumLabels; l++ {
			lat[i][l] = m.emission(feats, l)
		}
	}
	return lat
}

// Decode returns the Viterbi (maximum a posteriori) label sequence for the
// positions' active features. Empty input returns nil.
func (m *Model) Decode(seq [][]int) []Label {
	n := len(seq)
	if n == 0 {
		return nil
	}
	lat := m.lattice(seq)

	var delta [NumLabels]float64
	back := make([][NumLabels]Label, n)
	for l := Label(0); l < NumLabels; l++ {
		delta[l] = m.start[l] + lat[0][l]
	}
	for i := 1; i < n; i++ {
		var next [NumLabels]float64
		for b := Label(0); b < NumLabels; b++ {
			best, arg := math.Inf(-1), Label(0)
			for a := Label(0); a < NumLabels; a++ {
				if s := delta[a] + m.trans[a][b]; s > best {
					best, arg = s, a
				}
			}
			next[b] = best + lat[i][b]
			back[i][b] = arg
		}
		delta = next
	}
	out := make([]Label, n)
	bestL := Label(0)
	if delta[1] > delta[0] {
		bestL = 1
	}
	out[n-1] = bestL
	for i := n - 1; i > 0; i-- {
		bestL = back[i][bestL]
		out[i-1] = bestL
	}
	return out
}

// Marginals returns the posterior P(yᵢ = l | x) for every position, via
// forward–backward in log space. Rows sum to 1.
func (m *Model) Marginals(seq [][]int) [][NumLabels]float64 {
	n := len(seq)
	if n == 0 {
		return nil
	}
	lat := m.lattice(seq)
	fwd, bwd, logZ := m.forwardBackward(lat)
	out := make([][NumLabels]float64, n)
	for i := 0; i < n; i++ {
		for l := Label(0); l < NumLabels; l++ {
			out[i][l] = math.Exp(fwd[i][l] + bwd[i][l] - logZ)
		}
		// Renormalize against float drift.
		sum := out[i][0] + out[i][1]
		if sum > 0 {
			out[i][0] /= sum
			out[i][1] /= sum
		}
	}
	return out
}

// LogLikelihood returns log P(labels | seq) under the model.
func (m *Model) LogLikelihood(seq [][]int, labels []Label) float64 {
	if len(seq) != len(labels) || len(seq) == 0 {
		return math.Inf(-1)
	}
	lat := m.lattice(seq)
	score := m.start[labels[0]] + lat[0][labels[0]]
	for i := 1; i < len(seq); i++ {
		score += m.trans[labels[i-1]][labels[i]] + lat[i][labels[i]]
	}
	_, _, logZ := m.forwardBackward(lat)
	return score - logZ
}

// forwardBackward computes log-space forward and backward tables and the
// log partition function.
func (m *Model) forwardBackward(lat [][NumLabels]float64) (fwd, bwd [][NumLabels]float64, logZ float64) {
	n := len(lat)
	fwd = make([][NumLabels]float64, n)
	bwd = make([][NumLabels]float64, n)

	for l := Label(0); l < NumLabels; l++ {
		fwd[0][l] = m.start[l] + lat[0][l]
	}
	for i := 1; i < n; i++ {
		for b := Label(0); b < NumLabels; b++ {
			fwd[i][b] = logSumExp2(
				fwd[i-1][0]+m.trans[0][b],
				fwd[i-1][1]+m.trans[1][b],
			) + lat[i][b]
		}
	}

	for l := Label(0); l < NumLabels; l++ {
		bwd[n-1][l] = 0
	}
	for i := n - 2; i >= 0; i-- {
		for a := Label(0); a < NumLabels; a++ {
			bwd[i][a] = logSumExp2(
				m.trans[a][0]+lat[i+1][0]+bwd[i+1][0],
				m.trans[a][1]+lat[i+1][1]+bwd[i+1][1],
			)
		}
	}

	logZ = logSumExp2(fwd[n-1][0], fwd[n-1][1])
	return fwd, bwd, logZ
}

// logSumExp2 is log(eᵃ + eᵇ) computed stably.
func logSumExp2(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(a, -1) {
		return a
	}
	return a + math.Log1p(math.Exp(b-a))
}
