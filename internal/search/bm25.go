package search

import (
	"math"

	"l2q/internal/textproc"
)

// The paper's data model only requires *an* information-retrieval model
// ("a query can retrieve a set of pages through an information retrieval
// model, such as a commercial search engine", §I). The experiments use
// query-likelihood with Dirichlet smoothing; BM25 is provided as an
// alternative so the harvesting stack can be exercised against a different
// ranking function (and because downstream users will ask for it). The
// scoring itself lives in scorer.go (the engine's path) and reference.go
// (retained ground-truth path).

// Default BM25 parameters (standard Robertson values).
const (
	DefaultBM25K1 = 1.2
	DefaultBM25B  = 0.75
)

// WithBM25 returns a copy of the engine that ranks with Okapi BM25 instead
// of the Dirichlet query-likelihood model.
func (e *Engine) WithBM25(k1, b float64) *Engine {
	cp := *e
	cp.bm25 = true
	cp.k1 = k1
	cp.b = b
	if cp.k1 <= 0 {
		cp.k1 = DefaultBM25K1
	}
	if cp.b < 0 || cp.b > 1 {
		cp.b = DefaultBM25B
	}
	cp.cache = e.cache.fresh()
	return &cp
}

// IsBM25 reports whether the engine ranks with BM25.
func (e *Engine) IsBM25() bool { return e.bm25 }

// idf is the BM25 inverse document frequency over the engine's collection
// statistics.
func (e *Engine) idf(t textproc.Token) float64 {
	return bm25IDF(float64(e.statDocFreq(t)), float64(e.statNumDocs()))
}

// bm25IDF is the BM25 inverse document frequency with the +1 floor that
// keeps it positive for very common terms. One shared expression, so the
// live engine's hoisted per-view constants are bit-identical to what each
// segment engine would compute itself.
func bm25IDF(df, n float64) float64 {
	return math.Log((n-df+0.5)/(df+0.5) + 1)
}
