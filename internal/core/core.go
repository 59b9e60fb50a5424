// Package core implements the paper's contribution: Learning to Query
// (L2Q). Given a target entity (identified by a seed query) and a target
// aspect (materialized by a relevance function Y over pages), L2Q
// iteratively selects the next query to fire at a search engine so that the
// harvested pages focus on that entity aspect (Fig. 1).
//
// The package provides:
//
//   - The domain phase (§IV-B): one-off learning of template utilities from
//     peer entities in the same domain (LearnDomain → DomainModel).
//   - The entity phase (§IV-C): per-iteration construction of the entity
//     reinforcement graph and utility inference for candidate queries.
//   - Context awareness (§V): collective precision/recall of the candidate
//     together with the past queries Φ, with the redundancy term ∆.
//   - The selection strategies evaluated in §VI: RND, P, R, P+q, R+q,
//     P+t, R+t, L2QP, L2QR and L2QBAL.
package core

import (
	"l2q/internal/graph"
	"l2q/internal/textproc"
)

// Query is a candidate query in canonical form: tokens joined by single
// spaces (textproc.JoinQuery). Because tokens may themselves be multi-word
// phrases ("data mining"), converting a Query back to tokens must go
// through Config.QueryTokens, which re-applies the phrase lexicon; naive
// splitting would shatter phrase tokens.
type Query string

// The paper's settings (§VI-A "Settings"). They are fixed: every session,
// domain phase and baseline reads these, and no Config overrides them.
const (
	// Alpha is the regularization / restart parameter α of Eq. 13
	// (paper: 0.15), the graph solver's own default.
	Alpha = graph.DefaultAlpha
	// Lambda is the domain-adaptation parameter λ of Eq. 21–22
	// (paper: 10).
	Lambda float64 = 10
	// R0 is the seed-query recall parameter r0 ∈ (0,1) of §V-A: the
	// seed's g₀ relevant pages are taken as recall r0, which sizes the
	// relevant universe of a session without a domain model. The paper
	// chooses r0 by cross-validation; here it is fixed, and
	// eval.CrossValidateR0 tunes Config.R0Star, the anchor that binds
	// when a domain model is present.
	R0 float64 = 0.3
	// MaxQueryLen is the maximum query length L (paper: 3): the width of
	// the session's n-gram keys.
	MaxQueryLen = textproc.MaxGramLen
	// MinQueryPageDF prunes domain-phase queries occurring in fewer
	// pages (noise n-grams); 2 keeps anything that repeats at all.
	MinQueryPageDF = 2
	// MinDomainEntityFrac keeps a domain query as an entity-phase
	// candidate only if it occurs with at least this fraction of domain
	// entities (paper: ≥50 of ~500, i.e. 0.1).
	MinDomainEntityFrac float64 = 0.1
	// MaxDomainCandidates caps the domain-derived candidate pool,
	// keeping the most entity-frequent queries.
	MaxDomainCandidates = 300
	// PriorStrength is the pseudo-count weight m of the domain template
	// prior inside the probability-scale collective-recall estimate
	// R_E(q) ≈ (n·count + m·prior)/(n + m); see §V notes in DESIGN.md.
	PriorStrength float64 = 3
	// SolverMaxIter bounds the fixpoint solver's iterations, the graph
	// solver's own default (the paper observes convergence in ~50).
	SolverMaxIter = graph.DefaultMaxIter
)

// Stopwords filters candidate n-grams: the one stopword set every session,
// domain phase and baseline enumerates under, so a page's memoized
// enumeration (corpus.Page.NGrams) serves them all.
var Stopwords = textproc.NewStopwords()

// Config carries the settings that stay settable; the paper's fixed
// settings are the constants above. DefaultConfig returns the defaults.
type Config struct {
	// R0Star is the seed query's recall w.r.t. Y* (all pages), the base
	// case of the collective precision denominator (§V-B). The relevant
	// subset is much smaller than the page universe, so the seed covers
	// a smaller fraction of Y* than of Y; anchoring both with the same
	// r0 makes R*_E(Φ) saturate and collapses collective precision into
	// collective recall after a few iterations. Settable because it is
	// the cross-validated anchor: `l2qexp -r0star` and `-cv` set it.
	R0Star float64
	// UseWalkRecallReg switches the entity phase's template recall
	// regularization (Eq. 22) from the probability-scale counting
	// estimate back to the raw forward-walk masses R_D(t). The walk
	// masses are diluted by the domain graph's size and barely move the
	// entity fixpoint at λ=10, so counting is the default. Settable for
	// BenchmarkAblationWalkRecallReg, which tells the two apart, until
	// the ablation decides which one stays.
	UseWalkRecallReg bool
	// SolverTol is the fixpoint solver's L∞ convergence tolerance.
	// Settable so the differential tests can tighten it (to 1e-12) and
	// compare incremental and from-scratch solutions closely.
	SolverTol float64
	// Tokenizer re-tokenizes query strings (and the seed query) with the
	// domain's phrase lexicon so multi-word phrase tokens survive the
	// round trip. Nil falls back to plain space splitting, which is only
	// correct when the corpus has no phrase tokens. Settable because the
	// lexicon belongs to the corpus: each System sets its own.
	Tokenizer *textproc.Tokenizer

	// grams holds the term vocabulary and the n-gram facts table every
	// session built from a copy of this Config shares (see gramTable).
	// DefaultConfig makes one, so a System — whose sessions all start from
	// its one Config — has one.
	grams *gramTables
}

// DefaultConfig returns the default settings.
func DefaultConfig() Config {
	return Config{
		grams:     new(gramTables),
		R0Star:    0.1,
		SolverTol: 1e-9,
	}
}

// QueryTokens converts a canonical query string to its token sequence,
// re-applying the phrase lexicon when a tokenizer is configured.
func (c Config) QueryTokens(q Query) []textproc.Token {
	if c.Tokenizer != nil {
		return c.Tokenizer.Tokenize(string(q))
	}
	return textproc.SplitQuery(string(q))
}

// ngramConfig builds the textproc enumeration config, excluding the given
// tokens (the seed query's tokens in the entity phase).
func ngramConfig(exclude []textproc.Token) textproc.NGramConfig {
	var ex map[textproc.Token]struct{}
	if len(exclude) > 0 {
		ex = make(map[textproc.Token]struct{}, len(exclude))
		for _, t := range exclude {
			ex[t] = struct{}{}
		}
	}
	return textproc.NGramConfig{MaxLen: MaxQueryLen, Stopwords: Stopwords, Exclude: ex}
}
