package search

import (
	"encoding/binary"
	"sync"

	"l2q/internal/textproc"
)

// Cache is a thread-safe S3-FIFO cache ("FIFO queues are all you need for
// cache eviction", Yang et al., SOSP 2023) from byte-string keys to values —
// the one eviction policy in the tree: the engines' query-result caches
// here, and in internal/webapi a cluster coordinator's front result cache
// and page-body cache, a server's frame memo and a client's decode memo.
// Eviction is purely capacity-driven; there is no invalidation, so it fits
// only what cannot go stale (an immutable index, a frozen cluster) or what
// carries its version in the key (the live engine's view epoch). Values
// are shared, never copied: a caller must not mutate what Get returns or
// what it has handed to Put — a cache of slices copies on the way in and
// on the way out (see Engine.searchTopKAppend). Keys are probed as []byte
// — Go's map lookup on string(bytes) does not allocate — and materialized
// to a string only when an entry is actually inserted, so a hit costs zero
// allocations.
//
// Three FIFO queues instead of a recency list. A new key enters the small
// queue (a tenth of the capacity); a key hit while there moves to the main
// queue when it reaches the small queue's end, and one never hit leaves
// the cache, its key remembered in the ghost queue. The main queue evicts
// CLOCK-style: a key at its end with a nonzero counter (bumped by each hit,
// saturating at 3) goes round again one count lower. A key Put while the
// ghost remembers it was evicted too soon and enters the main queue
// directly. So a key used once passes through a tenth of the cache, and a
// loop over a few more keys than the capacity — which an LRU misses
// completely, evicting every key just before it comes round — keeps most
// of its keys in the main queue from one pass to the next. A hit is one
// map probe and a counter bump: nothing is relinked, and nothing runs in
// the background.
type Cache[V any] struct {
	capacity int
	smallCap int // the small queue's share: while it holds this many it evicts, below it the main queue does
	ghostCap int // how many evicted keys the ghost remembers: the main queue's share

	mu    sync.Mutex
	slots []cacheSlot[V] // entry storage, len ≤ capacity; byKey and the queues hold indices into it
	byKey map[string]int32
	small slotRing
	main  slotRing
	// ghost maps each remembered key to the sequence number it was
	// remembered at; ghostKeys[seq % ghostCap] is that key until a later
	// one overwrites it, which forgets the key unless it was remembered
	// again since.
	ghost     map[string]uint64
	ghostKeys []string
	ghostSeq  uint64

	hits   uint64
	misses uint64
}

type cacheSlot[V any] struct {
	key  string
	val  V
	freq uint8 // hits since admission or since the last CLOCK pass, ≤ maxFreq
}

// maxFreq is where a slot's hit counter saturates: a key in the main queue
// survives at most this many CLOCK passes without a hit.
const maxFreq = 3

// slotRing is a fixed-size FIFO of slot indices.
type slotRing struct {
	buf     []int32
	head, n int
}

func (r *slotRing) push(i int32) {
	r.buf[(r.head+r.n)%len(r.buf)] = i
	r.n++
}

func (r *slotRing) pop() int32 {
	i := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return i
}

// NewCache returns a cache holding at most capacity entries; capacity ≤ 0
// returns nil, which callers treat as "caching off".
func NewCache[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		return nil
	}
	small := max(capacity/10, 1)
	return &Cache[V]{capacity: capacity, smallCap: small, ghostCap: capacity - small}
}

// fresh returns an empty cache with the receiver's capacity (nil-safe).
// Engine copies that change scoring parameters use it so a stale cache is
// never shared across differently-configured engines.
func (c *Cache[V]) fresh() *Cache[V] {
	if c == nil {
		return nil
	}
	return NewCache[V](c.capacity)
}

// Get returns the value stored under key and counts the hit toward the
// key's staying. The bool reports whether the key was present.
func (c *Cache[V]) Get(key []byte) (V, bool) {
	c.mu.Lock()
	i, ok := c.byKey[string(key)] // no-alloc lookup
	if !ok {
		c.misses++
		c.mu.Unlock()
		var zero V
		return zero, false
	}
	c.hits++
	s := &c.slots[i]
	if s.freq < maxFreq {
		s.freq++
	}
	v := s.val
	c.mu.Unlock()
	return v, true
}

// Put stores v under key. It returns the value that left the cache to make
// room — the key's previous value, or the entry evicted when the cache was
// full — so a caller that accounts for what its values hold (the
// coordinator's body bytes) can subtract it. The key string is
// materialized only when a new entry is inserted.
func (c *Cache[V]) Put(key []byte, v V) (displaced V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey == nil {
		c.slots = make([]cacheSlot[V], 0, c.capacity)
		c.byKey = make(map[string]int32, c.capacity)
		c.small.buf = make([]int32, c.capacity)
		c.main.buf = make([]int32, c.capacity)
		c.ghost = make(map[string]uint64, c.ghostCap)
		c.ghostKeys = make([]string, c.ghostCap)
	}
	if i, ok := c.byKey[string(key)]; ok {
		s := &c.slots[i]
		displaced, s.val = s.val, v
		return displaced, true
	}
	k, returning := c.forget(key)
	if !returning {
		k = string(key)
	}
	var i int32
	if len(c.slots) < c.capacity {
		i = int32(len(c.slots))
		c.slots = append(c.slots, cacheSlot[V]{})
	} else {
		i = c.evict()
		displaced, ok = c.slots[i].val, true
	}
	c.slots[i] = cacheSlot[V]{key: k, val: v}
	c.byKey[k] = i
	if returning {
		c.main.push(i)
	} else {
		c.small.push(i)
	}
	return displaced, ok
}

// evict removes one entry from a full cache and returns its slot. The
// small queue gives up its oldest key while it holds its share (or the
// main queue is empty): to the main queue if it was hit, out of the cache
// into the ghost if not. Otherwise the main queue's oldest key leaves
// unless its counter says it was hit since it last came round. Every pass
// either empties the small queue by one or lowers a counter, so the loop
// ends.
func (c *Cache[V]) evict() int32 {
	for {
		if c.small.n >= c.smallCap || c.main.n == 0 {
			i := c.small.pop()
			s := &c.slots[i]
			if s.freq > 0 {
				s.freq = 0
				c.main.push(i)
				continue
			}
			c.remember(s.key)
			delete(c.byKey, s.key)
			return i
		}
		i := c.main.pop()
		s := &c.slots[i]
		if s.freq > 0 {
			s.freq--
			c.main.push(i)
			continue
		}
		delete(c.byKey, s.key)
		return i
	}
}

// remember puts a key evicted from the small queue into the ghost,
// forgetting the oldest remembered key when the ghost is full.
func (c *Cache[V]) remember(key string) {
	if c.ghostCap == 0 {
		return
	}
	slot := c.ghostSeq % uint64(c.ghostCap)
	if c.ghostSeq >= uint64(c.ghostCap) {
		old := c.ghostKeys[slot]
		if seq, ok := c.ghost[old]; ok && seq == c.ghostSeq-uint64(c.ghostCap) {
			delete(c.ghost, old)
		}
	}
	c.ghostKeys[slot] = key
	c.ghost[key] = c.ghostSeq
	c.ghostSeq++
}

// forget takes key out of the ghost. When the ghost remembered it, it
// returns the key's string (so the insert need not build it again) and
// true.
func (c *Cache[V]) forget(key []byte) (string, bool) {
	seq, ok := c.ghost[string(key)]
	if !ok {
		return "", false
	}
	k := c.ghostKeys[seq%uint64(c.ghostCap)]
	delete(c.ghost, k)
	return k, true
}

// Stats reports the lifetime hit and miss counts and the number of entries
// held now, read together under the cache's lock (all zero for a nil cache:
// caching off).
func (c *Cache[V]) Stats() (hits, misses uint64, entries int) {
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
