package textproc

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

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

// CountNGrams tallies n-gram occurrence counts over a token sequence into
// counts (allocated by the caller), applying the same admissibility rules as
// NGrams. It returns counts to allow chaining.
func CountNGrams(tokens []Token, cfg NGramConfig, counts map[string]int) map[string]int {
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 3
	}
	if counts == nil {
		counts = make(map[string]int)
	}
	flags := cfg.appendFlags(make([]uint8, 0, len(tokens)), tokens)
	for l := 1; l <= cfg.MaxLen; l++ {
		for i := 0; i+l <= len(tokens); i++ {
			if admissibleAt(flags, i, l) {
				counts[JoinQuery(tokens[i:i+l])]++
			}
		}
	}
	return counts
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

// memoKey derives a stable identity for enumeration results produced
// under this config. Stopword lists are keyed by pointer identity (they
// are shared, immutable objects within one system); the exclude set is
// keyed by its sorted contents so two configs excluding the same seed
// tokens share cache entries regardless of map construction order.
func (cfg NGramConfig) memoKey() string {
	maxLen := cfg.MaxLen
	if maxLen <= 0 {
		maxLen = 3
	}
	var ex []string
	for t := range cfg.Exclude {
		ex = append(ex, string(t))
	}
	sort.Strings(ex)
	return fmt.Sprintf("%d|%p|%s", maxLen, cfg.Stopwords, strings.Join(ex, "\x00"))
}

// maxMemoEntries bounds the distinct configs one NGramMemo caches.
// Distinct entries arise from distinct seed-exclusion sets (one per
// entity harvesting the page); past the bound, exclusion-carrying
// enumerations are computed without caching so a page touched by many
// entities cannot grow without bound. The exclusion-free config (shared
// by domain learning, coverage and the baselines) is exempt from the
// cap, so a burst of entity sessions can never lock it out.
const maxMemoEntries = 16

// NGramMemo memoizes NGrams enumerations of ONE immutable token stream,
// keyed by the enumeration config. Pages are immutable once ingested, so
// candidate generation, domain learning and §V coverage can share a
// single enumeration instead of re-sliding the n-gram window on every
// step. Safe for concurrent use; the zero value is ready.
//
// Callers must treat the returned slice as read-only — it is shared by
// every caller with the same config.
type NGramMemo struct {
	mu    sync.Mutex
	byCfg map[string]memoEntry
}

// memoEntry retains the stopword list a cached enumeration was computed
// under: the cache key carries only its formatted address, so without
// the retained pointer a collected list whose address is reused by a
// later allocation could produce a stale false hit. Holding the pointer
// both keeps the list alive and lets lookups verify identity.
type memoEntry struct {
	sw  *Stopwords
	out []string
}

// NGrams returns NGrams(tokens, cfg), computing it at most once per
// config. tokens must be the same immutable stream on every call (the
// owning page's token cache).
func (m *NGramMemo) NGrams(tokens []Token, cfg NGramConfig) []string {
	key := cfg.memoKey()
	m.mu.Lock()
	if e, ok := m.byCfg[key]; ok && e.sw == cfg.Stopwords {
		m.mu.Unlock()
		return e.out
	}
	m.mu.Unlock()
	out := NGrams(tokens, cfg)
	if out == nil {
		out = []string{} // distinguish "computed, empty" from "absent"
	}
	m.mu.Lock()
	if m.byCfg == nil {
		m.byCfg = make(map[string]memoEntry)
	}
	if e, ok := m.byCfg[key]; ok && e.sw == cfg.Stopwords {
		out = e.out // another goroutine computed it first; share theirs
	} else if ok || len(m.byCfg) < maxMemoEntries || len(cfg.Exclude) == 0 {
		// Overwrite a same-key entry whose stopword list died (its
		// address was reused), or fill a free slot. The exclusion-free
		// config bypasses the cap: it is the one shared by domain
		// learning and the baselines, and many distinct per-entity seed
		// exclusions must not be able to lock it out.
		m.byCfg[key] = memoEntry{sw: cfg.Stopwords, out: out}
	}
	m.mu.Unlock()
	return out
}

// ContainsSubsequence reports whether the query tokens appear in the page
// tokens as a contiguous subsequence. This is the containment test behind
// reinforcement-graph edges between pages and the queries they contain.
func ContainsSubsequence(page, query []Token) bool {
	if len(query) == 0 || len(query) > len(page) {
		return false
	}
outer:
	for i := 0; i+len(query) <= len(page); i++ {
		for j := range query {
			if page[i+j] != query[j] {
				continue outer
			}
		}
		return true
	}
	return false
}
