package textproc

import "sync"

// NGramConfig controls candidate-query enumeration from token streams.
type NGramConfig struct {
	// MaxLen is the maximum query length L (paper uses L=3, §VI-A).
	MaxLen int
	// Stopwords, when non-nil, suppresses n-grams that consist solely of
	// stopwords and n-grams that start or end with a stopword (interior
	// stopwords are allowed: "university of illinois").
	Stopwords *Stopwords
	// Exclude drops any n-gram containing one of these tokens (used to
	// remove the seed-query tokens: the seed is appended to every query
	// anyway, so repeating its words adds no signal).
	Exclude map[Token]struct{}
}

// DefaultNGramConfig returns the paper's enumeration settings: L = 3 with
// the default stopword list.
func DefaultNGramConfig() NGramConfig {
	return NGramConfig{MaxLen: 3, Stopwords: NewStopwords()}
}

// NGrams enumerates the distinct candidate queries from a token sequence by
// sliding a window of ℓ ∈ {1..MaxLen} words (paper §VI-A). The result is
// deduplicated, in first-appearance order, each rendered with JoinQuery.
func NGrams(tokens []Token, cfg NGramConfig) []string {
	return AppendNGrams(nil, tokens, cfg)
}

// ngramScratch is the pooled working state of one AppendNGrams pass: the
// dedup set (cleared, but kept at capacity, between uses), the byte buffer
// grams are joined into so the set probe never allocates, and the
// per-token admissibility flags.
type ngramScratch struct {
	seen  map[string]struct{}
	join  []byte
	flags []uint8
}

var ngramScratchPool = sync.Pool{New: func() any {
	return &ngramScratch{seen: make(map[string]struct{}, 256)}
}}

// AppendNGrams is NGrams with a caller-provided buffer: distinct
// admissible grams are appended to dst in first-appearance order. The
// dedup set, the join buffer and the token flags come from a pool and
// every dedup probe is an allocation-free map lookup on the join buffer,
// so the only allocations are the emitted multi-word gram strings
// themselves (single-word grams reuse the token string) plus any dst
// growth.
func AppendNGrams(dst []string, tokens []Token, cfg NGramConfig) []string {
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 3
	}
	sc := ngramScratchPool.Get().(*ngramScratch)
	seen, join := sc.seen, sc.join
	flags := cfg.appendFlags(sc.flags[:0], tokens)
	for l := 1; l <= cfg.MaxLen; l++ {
		for i := 0; i+l <= len(tokens); i++ {
			if !admissibleAt(flags, i, l) {
				continue
			}
			var q string
			if l == 1 {
				// A 1-gram IS its token; no join, no copy.
				q = string(tokens[i])
				if _, dup := seen[q]; dup {
					continue
				}
			} else {
				join = appendJoined(join[:0], tokens[i:i+l])
				if _, dup := seen[string(join)]; dup {
					continue
				}
				q = string(join)
			}
			seen[q] = struct{}{}
			dst = append(dst, q)
		}
	}
	clear(sc.seen)
	sc.join, sc.flags = join, flags
	ngramScratchPool.Put(sc)
	return dst
}

// Per-token admissibility flags: a gram is admissible iff none of its
// tokens is excluded and neither of its end tokens is a stopword, so two
// set probes per token (or, over term ids, a bit test and a few compares)
// decide every gram over it.
const (
	tokExcluded uint8 = 1 << iota // in NGramConfig.Exclude
	tokStop                       // in NGramConfig.Stopwords
)

// appendFlags appends each token's admissibility flags to dst.
func (cfg NGramConfig) appendFlags(dst []uint8, tokens []Token) []uint8 {
	for _, t := range tokens {
		var f uint8
		if len(cfg.Exclude) > 0 {
			if _, bad := cfg.Exclude[t]; bad {
				f |= tokExcluded
			}
		}
		if cfg.Stopwords.Contains(t) {
			f |= tokStop
		}
		dst = append(dst, f)
	}
	return dst
}

// admissibleAt reports whether the gram of l ≥ 1 tokens starting at token
// i is admissible, given the tokens' flags.
func admissibleAt(flags []uint8, i, l int) bool {
	if (flags[i]|flags[i+l-1])&tokStop != 0 {
		return false
	}
	for _, f := range flags[i : i+l] {
		if f&tokExcluded != 0 {
			return false
		}
	}
	return true
}

// appendJoined appends the tokens to dst separated by single spaces —
// JoinQuery into a reusable buffer.
func appendJoined(dst []byte, tokens []Token) []byte {
	for j, t := range tokens {
		if j > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, t...)
	}
	return dst
}
