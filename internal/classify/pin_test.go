package classify

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/synth"
)

// pinnedY is what the harvest reads of one aspect's classifier: the page
// score, the binary Y it thresholds to, and the Fig. 9 accuracy.
type pinnedY interface {
	PageScore(p *corpus.Page) float64
	PageRelevant(p *corpus.Page) bool
	Accuracy(pages []*corpus.Page) float64
}

// yDigest hashes every aspect's reading of the test pages: for each
// (aspect, page) the PageScore's bit pattern and PageRelevant, then the
// aspect's Accuracy bits; an untrained aspect hashes as a marker. It fails
// when the set's cached Y disagrees with the classifier's own page rule.
func yDigest[C pinnedY](t *testing.T, aspects []corpus.Aspect, byAspect map[corpus.Aspect]C,
	relevant func(corpus.Aspect, *corpus.Page) bool, test []*corpus.Page) string {
	t.Helper()
	h := sha256.New()
	for _, a := range aspects {
		putPinString(h, string(a))
		c, ok := byAspect[a]
		if !ok {
			putPinUint(h, math.MaxUint64)
			continue
		}
		for _, p := range test {
			y := c.PageRelevant(p)
			miss, hit := relevant(a, p), relevant(a, p)
			if miss != y || hit != y {
				t.Fatalf("aspect %s page %d: the set's Y differs from PageRelevant", a, p.ID)
			}
			putPinUint(h, uint64(p.ID))
			putPinUint(h, math.Float64bits(c.PageScore(p)))
			if y {
				putPinUint(h, 1)
			} else {
				putPinUint(h, 0)
			}
		}
		putPinUint(h, math.Float64bits(c.Accuracy(test)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putPinUint(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func putPinString(h hash.Hash, s string) {
	putPinUint(h, uint64(len(s)))
	h.Write([]byte(s))
}

// TestYPinned pins Y bit for bit for both classifier families on both
// synthetic domains, trained on one half of every entity's pages and read
// on the other: a change to how classifiers are held, dispatched or cached
// must leave every page score, every binary Y and every accuracy as it is.
func TestYPinned(t *testing.T) {
	cases := []struct {
		domain    corpus.Domain
		nb, chain string
	}{
		{synth.DomainResearchers,
			"2cd45d5858ae1d3efe77502c7dc2b6db6fe8d541d62231b03c7c1bf8543183b1",
			"5e8cc7ece557c828d1640dc5bf7cdb36d1f4aef015c973f8582e7f6810f5703a"},
		{synth.DomainCars,
			"fbfd1081b5ae60706525c111edeca4d381a0d833cb5513b692aa4253d964dd94",
			"6ff349a7f4bd940dd5f93d2b5be379d2d176616b3949abc60ae734d9bade8088"},
	}
	for _, tc := range cases {
		t.Run(string(tc.domain), func(t *testing.T) {
			g, train, test := trainTestSplit(t, tc.domain)
			nb := TrainSet(g.Aspects, train)
			if got := yDigest(t, g.Aspects, nb.ByAspect, nb.Relevant, test); got != tc.nb {
				t.Errorf("naive Bayes Y digest = %s, want %s", got, tc.nb)
			}
			chain := TrainCRFSet(g.Aspects, train)
			if got := yDigest(t, g.Aspects, chain.ByAspect, chain.Relevant, test); got != tc.chain {
				t.Errorf("CRF Y digest = %s, want %s", got, tc.chain)
			}
		})
	}
}
