package search

import (
	"container/list"
	"encoding/binary"
	"sync"

	"l2q/internal/textproc"
)

// queryCache is a thread-safe LRU cache of query results. Because the index
// is immutable, entries never go stale; eviction is purely capacity-driven.
// The cache owns its result slices: getAppend copies into the caller's
// buffer so callers can keep mutating the slices Search hands them (the
// pre-cache contract). Keys are probed as []byte — Go's map lookup on
// string(bytes) does not allocate — and materialized to a string only when
// an entry is actually inserted, so a cache hit costs zero allocations.
type queryCache struct {
	capacity int

	mu     sync.Mutex
	ll     *list.List // front = most recently used
	byKey  map[string]*list.Element
	hits   uint64
	misses uint64
}

type cacheEntry struct {
	key string
	res []Result
}

func newQueryCache(capacity int) *queryCache {
	if capacity <= 0 {
		return nil
	}
	return &queryCache{capacity: capacity}
}

// fresh returns an empty cache with the receiver's capacity (nil-safe).
// Engine copies that change scoring parameters use it so a stale cache is
// never shared across differently-configured engines.
func (c *queryCache) fresh() *queryCache {
	if c == nil {
		return nil
	}
	return newQueryCache(c.capacity)
}

// getAppend looks key up and, on a hit, appends a copy of the cached
// results to dst (a cached empty result appends nothing). The bool
// reports whether the key was present.
func (c *queryCache) getAppend(key []byte, dst []Result) ([]Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[string(key)] // no-alloc lookup
	if !ok {
		c.misses++
		return dst, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return append(dst, el.Value.(*cacheEntry).res...), true
}

// put stores a copy of res under key: the cache owns one canonical copy
// and the caller keeps mutating its own slice freely (the pre-cache
// contract). The key string is materialized only when a new entry is
// inserted.
func (c *queryCache) put(key []byte, res []Result) {
	res = append([]Result(nil), res...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey == nil {
		c.byKey = make(map[string]*list.Element, c.capacity)
		c.ll = list.New()
	}
	if el, ok := c.byKey[string(key)]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	k := string(key)
	c.byKey[k] = c.ll.PushFront(&cacheEntry{key: k, res: res})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry).key)
	}
}

func (c *queryCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// appendCacheKey canonicalizes a query for the cache into dst: scoring
// mode, result-list size, then every token behind its length. Tokens
// arrive URL-decoded off the network and may hold any byte, so no
// separator is safe; uvarint lengths make the encoding prefix-free, hence
// injective — two different (mode, k, token list) triples never share a
// key. μ/k1/b need not appear — an engine copy with different smoothing
// gets a fresh cache (see the With* methods). The live engine prefixes its
// view epoch in decimal, which the mode letter terminates.
func appendCacheKey(dst []byte, bm25 bool, k int, query []textproc.Token) []byte {
	if bm25 {
		dst = append(dst, 'b')
	} else {
		dst = append(dst, 'd')
	}
	dst = binary.AppendUvarint(dst, uint64(k))
	for _, t := range query {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		dst = append(dst, t...)
	}
	return dst
}

// cacheKeyBuf is the pooled key-assembly buffer of one Search call.
type cacheKeyBuf struct{ b []byte }

var cacheKeyPool = sync.Pool{New: func() any { return new(cacheKeyBuf) }}
