package search

import (
	"container/list"
	"encoding/binary"
	"sync"

	"l2q/internal/textproc"
)

// LRU is a thread-safe least-recently-used cache from byte-string keys to
// values — the one eviction policy in the tree: the engines' query-result
// caches here, and a cluster coordinator's front result cache and page-body
// cache in internal/webapi. Eviction is purely capacity-driven; there is no
// invalidation, so it fits only what cannot go stale (an immutable index, a
// frozen cluster) or what carries its version in the key (the live engine's
// view epoch). Values are shared, never copied: a caller must not mutate
// what Get returns or what it has handed to Put — a cache of slices copies
// on the way in and on the way out (see Engine.searchTopKAppend). Keys are
// probed as []byte — Go's map lookup on string(bytes) does not allocate —
// and materialized to a string only when an entry is actually inserted, so
// a hit costs zero allocations.
type LRU[V any] struct {
	capacity int

	mu     sync.Mutex
	ll     *list.List // front = most recently used
	byKey  map[string]*list.Element
	hits   uint64
	misses uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU returns a cache holding at most capacity entries; capacity ≤ 0
// returns nil, which callers treat as "caching off".
func NewLRU[V any](capacity int) *LRU[V] {
	if capacity <= 0 {
		return nil
	}
	return &LRU[V]{capacity: capacity}
}

// fresh returns an empty cache with the receiver's capacity (nil-safe).
// Engine copies that change scoring parameters use it so a stale cache is
// never shared across differently-configured engines.
func (c *LRU[V]) fresh() *LRU[V] {
	if c == nil {
		return nil
	}
	return NewLRU[V](c.capacity)
}

// Get returns the value stored under key and marks it most recently used.
// The bool reports whether the key was present.
func (c *LRU[V]) Get(key []byte) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[string(key)] // no-alloc lookup
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put stores v under key. It returns the value that left the cache to make
// room — the key's previous value, or the least recently used entry when
// the insert ran over capacity — so a caller that accounts for what its
// values hold (the coordinator's body bytes) can subtract it. The key
// string is materialized only when a new entry is inserted.
func (c *LRU[V]) Put(key []byte, v V) (displaced V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey == nil {
		c.byKey = make(map[string]*list.Element, c.capacity)
		c.ll = list.New()
	}
	if el, ok := c.byKey[string(key)]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry[V])
		displaced, e.val = e.val, v
		return displaced, true
	}
	k := string(key)
	c.byKey[k] = c.ll.PushFront(&lruEntry[V]{key: k, val: v})
	if c.ll.Len() <= c.capacity {
		return displaced, false
	}
	back := c.ll.Remove(c.ll.Back()).(*lruEntry[V])
	delete(c.byKey, back.key)
	return back.val, true
}

// Stats reports the lifetime hit and miss counts and the number of entries
// held now, read together under the cache's lock (all zero for a nil cache:
// caching off).
func (c *LRU[V]) Stats() (hits, misses uint64, entries int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.byKey)
}

// appendCacheKey canonicalizes a search for the engine's cache into dst:
// the view epoch, the result-list size, then every token behind its length.
// Tokens arrive URL-decoded off the network and may hold any byte, so no
// separator is safe; uvarint lengths make the encoding prefix-free, hence
// injective — two different (epoch, k, token list) triples never share a
// key. The epoch is a uvarint like every other number in the key because
// it must say where it ends: k's byte can be an ASCII digit ('2' is k = 50),
// so a decimal epoch with nothing after it runs into k — epoch 1, k 50 and
// epoch 12 both open "12" (DESIGN.md "Retrieval engine"). A frozen engine's
// epoch is one constant zero byte. μ need not appear — an engine copy with
// different smoothing gets a fresh cache (see the With* methods).
func appendCacheKey(dst []byte, epoch uint64, k int, query []textproc.Token) []byte {
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(k))
	return appendKeyTokens(dst, query)
}

// AppendSeededCacheKey is the key of a whole seeded search — what a
// cluster coordinator caches in front of its nodes. A response echoes seed
// and query separately, so where one list ends and the other begins is part
// of the key: the seed's token count leads its tokens. The rest is
// appendCacheKey's encoding (result-list size, every token behind its
// uvarint length), prefix-free for the same reason.
func AppendSeededCacheKey(dst []byte, k int, seed, query []textproc.Token) []byte {
	dst = binary.AppendUvarint(dst, uint64(k))
	dst = binary.AppendUvarint(dst, uint64(len(seed)))
	return appendKeyTokens(appendKeyTokens(dst, seed), query)
}

// appendKeyTokens is the token half of every cache key.
func appendKeyTokens(dst []byte, toks []textproc.Token) []byte {
	for _, t := range toks {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		dst = append(dst, t...)
	}
	return dst
}

// cacheKeyBuf is the pooled key-assembly buffer of one search.
type cacheKeyBuf struct{ b []byte }

var cacheKeyPool = sync.Pool{New: func() any { return new(cacheKeyBuf) }}
