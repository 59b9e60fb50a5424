package search

// DefaultCacheSize is the query-result cache capacity when Options.CacheSize
// is 0. Entries are tiny (a key string plus topK Result structs), so the
// default is generous enough to hold a whole domain-learning candidate pool.
const DefaultCacheSize = 4096

// Options tunes the retrieval engine. The zero value means "all defaults",
// which is what NewEngine uses.
type Options struct {
	// CacheSize is the capacity, in entries, of the engine's query-result
	// cache (a Cache: S3-FIFO eviction). 0 picks DefaultCacheSize; negative
	// disables caching. The index is immutable, so cached results never
	// need invalidation.
	CacheSize int
}

// Capacity resolves CacheSize's zero to DefaultCacheSize (negative stays
// negative: caching off) — what NewCache is given, here and by a cluster
// coordinator sizing its front cache from the same option.
func (o Options) Capacity() int {
	if o.CacheSize == 0 {
		return DefaultCacheSize
	}
	return o.CacheSize
}
