package search

import "runtime"

// DefaultCacheSize is the query-result cache capacity when Options.CacheSize
// is 0. Entries are tiny (a key string plus topK Result structs), so the
// default is generous enough to hold a whole domain-learning candidate pool.
const DefaultCacheSize = 4096

// maxShards caps the shard count; beyond this, per-shard maps are so sparse
// that hashing overhead dominates.
const maxShards = 256

// Options tunes the sharded retrieval engine. The zero value means "all
// defaults", which is what BuildIndex and NewEngine use, so existing callers
// keep their behavior; every field has an explicit opt-out.
type Options struct {
	// Shards is the number of token-hash shards the inverted index is
	// split into. 0 picks GOMAXPROCS; values are clamped to [1, 256].
	// Shard count changes memory layout only — rankings are identical for
	// every shard count (see TestShardedMatchesReference).
	Shards int
	// CacheSize is the capacity of the engine's LRU query-result cache.
	// 0 picks DefaultCacheSize; negative disables caching. The index is
	// immutable, so cached results never need invalidation.
	CacheSize int
}

// withDefaults resolves zero fields to their defaults and clamps ranges.
func (o Options) withDefaults() Options {
	if o.Shards == 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.Shards > maxShards {
		o.Shards = maxShards
	}
	return o
}

// cacheSize resolves CacheSize's zero to DefaultCacheSize (negative stays
// negative: caching off).
func (o Options) cacheSize() int {
	if o.CacheSize == 0 {
		return DefaultCacheSize
	}
	return o.CacheSize
}
