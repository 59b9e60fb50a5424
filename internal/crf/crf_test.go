package crf

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// randModel builds a model with small random weights for inference tests.
func randModel(numFeats int, rng *rand.Rand) *Model {
	m := &Model{numFeats: numFeats}
	for l := 0; l < NumLabels; l++ {
		m.state[l] = make([]float64, numFeats)
		for f := range m.state[l] {
			m.state[l][f] = rng.NormFloat64()
		}
		m.bias[l] = rng.NormFloat64()
		m.start[l] = rng.NormFloat64()
		for b := 0; b < NumLabels; b++ {
			m.trans[l][b] = rng.NormFloat64()
		}
	}
	return m
}

// randSeq builds a random sequence of feature sets.
func randSeq(n, numFeats int, rng *rand.Rand) [][]int {
	seq := make([][]int, n)
	for i := range seq {
		k := rng.IntN(4)
		for j := 0; j < k; j++ {
			seq[i] = append(seq[i], rng.IntN(numFeats))
		}
	}
	return seq
}

// seqScore is the unnormalized log-score of one labeling (brute-force
// reference implementation).
func seqScore(m *Model, seq [][]int, labels []Label) float64 {
	s := m.start[labels[0]] + m.emission(seq[0], labels[0])
	for i := 1; i < len(seq); i++ {
		s += m.trans[labels[i-1]][labels[i]] + m.emission(seq[i], labels[i])
	}
	return s
}

// enumerate calls fn for every possible labeling of length n.
func enumerate(n int, fn func([]Label)) {
	labels := make([]Label, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			fn(labels)
			return
		}
		for l := Label(0); l < NumLabels; l++ {
			labels[i] = l
			rec(i + 1)
		}
	}
	rec(0)
}

// TestPartitionMatchesBruteForce checks that forward–backward's logZ equals
// the brute-force sum over all 2ⁿ labelings.
func TestPartitionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(6)
		m := randModel(5, rng)
		seq := randSeq(n, 5, rng)

		brute := math.Inf(-1)
		enumerate(n, func(labels []Label) {
			brute = logSumExp2(brute, seqScore(m, seq, labels))
		})
		_, _, logZ := m.forwardBackward(m.lattice(seq))
		if math.Abs(brute-logZ) > 1e-9 {
			t.Fatalf("trial %d: logZ = %v, brute force = %v", trial, logZ, brute)
		}
	}
}

// TestViterbiMatchesBruteForce checks Decode against exhaustive argmax.
func TestViterbiMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(6)
		m := randModel(4, rng)
		seq := randSeq(n, 4, rng)

		bestScore := math.Inf(-1)
		enumerate(n, func(labels []Label) {
			if s := seqScore(m, seq, labels); s > bestScore {
				bestScore = s
			}
		})
		got := m.Decode(seq)
		if s := seqScore(m, seq, got); math.Abs(s-bestScore) > 1e-9 {
			t.Fatalf("trial %d: viterbi score %v, best %v", trial, s, bestScore)
		}
	}
}

// TestMarginalsSumToOne checks posterior normalization and brute-force
// agreement.
func TestMarginalsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	n := 5
	m := randModel(4, rng)
	seq := randSeq(n, 4, rng)

	// Brute-force marginals.
	var logZ float64 = math.Inf(-1)
	enumerate(n, func(labels []Label) {
		logZ = logSumExp2(logZ, seqScore(m, seq, labels))
	})
	brute := make([][NumLabels]float64, n)
	enumerate(n, func(labels []Label) {
		p := math.Exp(seqScore(m, seq, labels) - logZ)
		for i, l := range labels {
			brute[i][l] += p
		}
	})

	got := m.Marginals(seq)
	for i := 0; i < n; i++ {
		if s := got[i][0] + got[i][1]; math.Abs(s-1) > 1e-9 {
			t.Errorf("position %d marginals sum to %v", i, s)
		}
		for l := 0; l < NumLabels; l++ {
			if math.Abs(got[i][l]-brute[i][l]) > 1e-9 {
				t.Errorf("position %d label %d: %v vs brute %v", i, l, got[i][l], brute[i][l])
			}
		}
	}
}

// TestGradientCheck compares the analytic SGD gradient against finite
// differences of the log-likelihood on a tiny problem — the canonical CRF
// correctness test.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	const numFeats = 3
	m := randModel(numFeats, rng)
	ex := Example{
		Feats:  [][]int{{0, 1}, {2}, {1}},
		Labels: []Label{1, 0, 1},
	}

	// Analytic gradient via a single SGD step with eta=1, l2=0 applied to
	// a copy: weight delta == gradient.
	grad := cloneModel(m)
	grad.sgdStep(&ex, 1.0, 0)

	const h = 1e-6
	checkOne := func(name string, get func(*Model) *float64) {
		plus, minus := cloneModel(m), cloneModel(m)
		*get(plus) += h
		*get(minus) -= h
		numeric := (plus.LogLikelihood(ex.Feats, ex.Labels) -
			minus.LogLikelihood(ex.Feats, ex.Labels)) / (2 * h)
		analytic := *get(grad) - *get(m)
		if math.Abs(numeric-analytic) > 1e-4 {
			t.Errorf("%s: numeric %v, analytic %v", name, numeric, analytic)
		}
	}

	for l := Label(0); l < NumLabels; l++ {
		l := l
		for f := 0; f < numFeats; f++ {
			f := f
			checkOne("state", func(m *Model) *float64 { return &m.state[l][f] })
		}
		checkOne("bias", func(m *Model) *float64 { return &m.bias[l] })
		checkOne("start", func(m *Model) *float64 { return &m.start[l] })
		for b := Label(0); b < NumLabels; b++ {
			b := b
			checkOne("trans", func(m *Model) *float64 { return &m.trans[l][b] })
		}
	}
}

func cloneModel(m *Model) *Model {
	cp := &Model{numFeats: m.numFeats, bias: m.bias, trans: m.trans, start: m.start}
	for l := 0; l < NumLabels; l++ {
		cp.state[l] = append([]float64(nil), m.state[l]...)
	}
	return cp
}

// TestTrainSeparableData checks that training learns a separable toy task:
// feature 0 marks label 1, feature 1 marks label 0.
func TestTrainSeparableData(t *testing.T) {
	var examples []Example
	rng := rand.New(rand.NewPCG(11, 12))
	for i := 0; i < 50; i++ {
		n := 2 + rng.IntN(5)
		ex := Example{Feats: make([][]int, n), Labels: make([]Label, n)}
		for j := 0; j < n; j++ {
			if rng.IntN(2) == 0 {
				ex.Feats[j] = []int{0}
				ex.Labels[j] = 1
			} else {
				ex.Feats[j] = []int{1}
				ex.Labels[j] = 0
			}
		}
		examples = append(examples, ex)
	}
	m, err := Train(examples, 2)
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for _, ex := range examples {
		got := m.Decode(ex.Feats)
		for i := range got {
			if got[i] == ex.Labels[i] {
				correct++
			}
			total++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.99 {
		t.Fatalf("accuracy %v on separable data", acc)
	}
}

// TestTrainLearnsTransitions checks that the chain structure is used: with
// uninformative emissions, sticky label runs must be learned from
// transitions alone.
func TestTrainLearnsTransitions(t *testing.T) {
	// All positions share feature 0; labels come in long runs.
	var examples []Example
	for i := 0; i < 40; i++ {
		ex := Example{}
		l := Label(i % 2)
		for j := 0; j < 8; j++ {
			ex.Feats = append(ex.Feats, []int{0})
			ex.Labels = append(ex.Labels, l)
		}
		examples = append(examples, ex)
	}
	m, err := Train(examples, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Staying must beat switching for both labels.
	if m.trans[0][0] <= m.trans[0][1] {
		t.Errorf("trans[0][0]=%v not > trans[0][1]=%v", m.trans[0][0], m.trans[0][1])
	}
	if m.trans[1][1] <= m.trans[1][0] {
		t.Errorf("trans[1][1]=%v not > trans[1][0]=%v", m.trans[1][1], m.trans[1][0])
	}
}

// TestTrainImprovesObjective checks SGD actually ascends the regularized
// log-likelihood relative to the zero model.
func TestTrainImprovesObjective(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	var examples []Example
	for i := 0; i < 30; i++ {
		n := 3 + rng.IntN(4)
		ex := Example{Feats: make([][]int, n), Labels: make([]Label, n)}
		for j := 0; j < n; j++ {
			f := rng.IntN(6)
			ex.Feats[j] = []int{f}
			if f < 3 {
				ex.Labels[j] = 1
			}
		}
		examples = append(examples, ex)
	}
	zero := &Model{numFeats: 6}
	for l := 0; l < NumLabels; l++ {
		zero.state[l] = make([]float64, 6)
	}
	trained, err := Train(examples, 6)
	if err != nil {
		t.Fatal(err)
	}
	if trained.RegularizedLogLikelihood(examples, trainL2) <= zero.RegularizedLogLikelihood(examples, trainL2) {
		t.Fatal("training did not improve the objective")
	}
}

func TestTrainValidation(t *testing.T) {
	good := Example{Feats: [][]int{{0}}, Labels: []Label{1}}
	cases := []struct {
		name     string
		examples []Example
		numFeats int
	}{
		{"empty", nil, 1},
		{"zero feats", []Example{good}, 0},
		{"length mismatch", []Example{{Feats: [][]int{{0}}, Labels: []Label{0, 1}}}, 1},
		{"empty sequence", []Example{{}}, 1},
		{"feature out of range", []Example{{Feats: [][]int{{5}}, Labels: []Label{0}}}, 1},
		{"bad label", []Example{{Feats: [][]int{{0}}, Labels: []Label{7}}}, 1},
	}
	for _, tc := range cases {
		if _, err := Train(tc.examples, tc.numFeats); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestDecodeEmpty(t *testing.T) {
	m := &Model{numFeats: 1}
	for l := 0; l < NumLabels; l++ {
		m.state[l] = make([]float64, 1)
	}
	if got := m.Decode(nil); got != nil {
		t.Errorf("Decode(nil) = %v", got)
	}
	if got := m.Marginals(nil); got != nil {
		t.Errorf("Marginals(nil) = %v", got)
	}
	if ll := m.LogLikelihood(nil, nil); !math.IsInf(ll, -1) {
		t.Errorf("LogLikelihood(empty) = %v", ll)
	}
}

func TestLogSumExp2(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 500 || math.Abs(b) > 500 {
			return true
		}
		got := logSumExp2(a, b)
		want := math.Log(math.Exp(a) + math.Exp(b))
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := logSumExp2(math.Inf(-1), math.Inf(-1)); !math.IsInf(got, -1) {
		t.Errorf("logSumExp2(-inf,-inf) = %v", got)
	}
	if got := logSumExp2(0, math.Inf(-1)); got != 0 {
		t.Errorf("logSumExp2(0,-inf) = %v", got)
	}
}

func TestFeatureMap(t *testing.T) {
	fm := NewFeatureMap()
	a := fm.ID("a")
	b := fm.ID("b")
	if a == b {
		t.Fatal("distinct names shared an id")
	}
	if got := fm.ID("a"); got != a {
		t.Fatal("id not stable")
	}
	if fm.Len() != 2 {
		t.Fatalf("Len = %d", fm.Len())
	}
	fm.Freeze()
	if got := fm.ID("new"); got != -1 {
		t.Fatalf("frozen map allocated %d", got)
	}
	if got := fm.ID("b"); got != b {
		t.Fatal("frozen lookup broken")
	}
}
