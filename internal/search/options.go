package search

// DefaultCacheSize is the query-result cache capacity when Options.CacheSize
// is 0. Entries are tiny (a key string plus topK Result structs), so the
// default is generous enough to hold a whole domain-learning candidate pool.
const DefaultCacheSize = 4096

// Options tunes the retrieval engine. The zero value means "all defaults",
// which is what NewEngine uses.
type Options struct {
	// CacheSize is the capacity of the engine's LRU query-result cache.
	// 0 picks DefaultCacheSize; negative disables caching. The index is
	// immutable, so cached results never need invalidation.
	CacheSize int
}

// Capacity resolves CacheSize's zero to DefaultCacheSize (negative stays
// negative: caching off) — what NewLRU is given, here and by a cluster
// coordinator sizing its front cache from the same option.
func (o Options) Capacity() int {
	if o.CacheSize == 0 {
		return DefaultCacheSize
	}
	return o.CacheSize
}
