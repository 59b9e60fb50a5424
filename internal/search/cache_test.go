package search

import (
	"encoding/binary"
	"math/rand/v2"
	"sync"
	"testing"
)

// cacheKey is the byte key of key number i.
func cacheKey(i uint64) []byte { return binary.AppendUvarint(nil, i) }

// access is how the engine uses its cache: a Get, and on a miss a Put of
// the value it computed (key i holds i). It reports whether the Get hit.
func access(t testing.TB, c *Cache[uint64], i uint64) bool {
	key := cacheKey(i)
	if v, ok := c.Get(key); ok {
		if v != i {
			t.Errorf("Get(%d) = %d", i, v)
		}
		return true
	}
	c.Put(key, i)
	return false
}

// TestCacheLoopKeepsMostKeys runs a loop over 8 % more keys than the
// cache holds, six passes: the access pattern of a re-harvest whose
// distinct queries just overflow the query cache. An LRU evicts every key
// just before it comes round again and hits nothing after the first pass;
// the cache must keep at least half of the loop.
func TestCacheLoopKeepsMostKeys(t *testing.T) {
	for _, capacity := range []int{64, 1000, DefaultCacheSize} {
		c := NewCache[uint64](capacity)
		n := (capacity*108 + 99) / 100
		hits, gets := 0, 0
		for pass := 0; pass < 6; pass++ {
			for i := 0; i < n; i++ {
				hit := access(t, c, uint64(i))
				if pass > 0 {
					gets++
					if hit {
						hits++
					}
				}
			}
		}
		ratio := float64(hits) / float64(gets)
		t.Logf("capacity %d, loop of %d keys: hit ratio %.4f after the first pass", capacity, n, ratio)
		if ratio < 0.5 {
			t.Errorf("capacity %d, loop of %d keys: hit ratio %.4f after the first pass, want ≥ 0.5", capacity, n, ratio)
		}
	}
}

// lruZipfHits is what an LRU of DefaultCacheSize entries hits of
// zipfDraws on the trace TestCacheZipfAtLeastLRU replays (0.8339),
// computed once by a list-based LRU simulation of the same trace.
const (
	lruZipfHits = 58370
	zipfDraws   = 70000
)

// TestCacheZipfAtLeastLRU replays the benchmark's search traffic in
// miniature: Zipf(1.1) draws over 8× the capacity in keys, after the
// search workloads' warm-up (the hottest quarter-capacity of keys once
// each, coldest first). The cache must hit at least as often as an LRU.
func TestCacheZipfAtLeastLRU(t *testing.T) {
	const capacity = DefaultCacheSize
	c := NewCache[uint64](capacity)
	for k := capacity/4 - 1; k >= 0; k-- {
		access(t, c, uint64(k))
	}
	z := rand.NewZipf(rand.New(rand.NewPCG(1, 2)), 1.1, 1, 8*capacity-1)
	hits := 0
	for i := 0; i < zipfDraws; i++ {
		if access(t, c, z.Uint64()) {
			hits++
		}
	}
	t.Logf("Zipf(1.1): %d of %d draws hit (%.4f; LRU %.4f)", hits, zipfDraws,
		float64(hits)/zipfDraws, float64(lruZipfHits)/zipfDraws)
	if hits < lruZipfHits {
		t.Errorf("Zipf(1.1): %d of %d draws hit, fewer than an LRU's %d", hits, zipfDraws, lruZipfHits)
	}
}

// TestCachePutDisplaced holds Put's second result — the value a caller
// that accounts for its values' size subtracts — and the capacity bound
// after every call, at capacity 1 and above: a Put over a held key
// displaces that key's value, a Put into a full cache displaces one value
// the cache held, and a Put into a cache with room displaces nothing.
func TestCachePutDisplaced(t *testing.T) {
	for _, capacity := range []int{1, 2, 10, 64} {
		c := NewCache[uint64](capacity)
		held := map[uint64]bool{} // the values in the cache, by Put's account
		last := map[uint64]uint64{}
		rng := rand.New(rand.NewPCG(uint64(capacity), 4))
		for v := uint64(1); v <= 2000; v++ {
			k := rng.Uint64N(uint64(3 * capacity))
			key := cacheKey(k)
			if rng.IntN(2) == 0 {
				if got, ok := c.Get(key); ok && got != last[k] {
					t.Fatalf("capacity %d: Get(%d) = %d, last Put %d", capacity, k, got, last[k])
				}
			} else {
				_, _, before := c.Stats()
				present := held[last[k]] && last[k] != 0
				old, ok := c.Put(key, v)
				switch {
				case present && (!ok || old != last[k]):
					t.Fatalf("capacity %d: Put over key %d displaced %d, %v; want its value %d", capacity, k, old, ok, last[k])
				case !present && before == capacity && (!ok || !held[old]):
					t.Fatalf("capacity %d: Put into a full cache displaced %d, %v; want a held value", capacity, old, ok)
				case !present && before < capacity && ok:
					t.Fatalf("capacity %d: Put with room displaced %d", capacity, old)
				}
				if ok {
					delete(held, old)
				}
				held[v] = true
				last[k] = v
			}
			if _, _, n := c.Stats(); n > capacity || n != len(held) {
				t.Fatalf("capacity %d: %d entries, %d by Put's account", capacity, n, len(held))
			}
		}
	}

	one := NewCache[string](1)
	one.Put([]byte("a"), "A")
	one.Get([]byte("a")) // a hit does not let a key outstay capacity 1
	if old, ok := one.Put([]byte("b"), "B"); !ok || old != "A" {
		t.Fatalf("capacity 1: second Put displaced %q, %v; want \"A\"", old, ok)
	}
	if _, ok := one.Get([]byte("a")); ok {
		t.Fatal("capacity 1: the displaced key still hits")
	}
	if v, ok := one.Get([]byte("b")); !ok || v != "B" {
		t.Fatalf("capacity 1: Get(b) = %q, %v", v, ok)
	}

	if c := NewCache[int](0); c != nil {
		t.Fatalf("NewCache(0) = %v, want nil (caching off)", c)
	}
	var off *Cache[int]
	if h, m, n := off.Stats(); h != 0 || m != 0 || n != 0 {
		t.Fatalf("nil cache Stats = %d, %d, %d", h, m, n)
	}
}

// TestCacheHitAllocs holds a hit to zero allocations.
func TestCacheHitAllocs(t *testing.T) {
	c := NewCache[uint64](16)
	key := cacheKey(7)
	c.Put(key, 7)
	if n := testing.AllocsPerRun(100, func() { c.Get(key) }); n != 0 {
		t.Fatalf("a hit allocates %.1f times, want 0", n)
	}
}

// TestCacheConcurrent runs Gets and Puts from several goroutines (the
// race detector checks the locking) and then holds the counters to the
// work done: hits + misses = Gets, entries ≤ capacity, and every hit the
// value Put under its key.
func TestCacheConcurrent(t *testing.T) {
	const (
		capacity = 50
		workers  = 8
		ops      = 2000
	)
	c := NewCache[uint64](capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 3))
			for i := 0; i < ops; i++ {
				access(t, c, rng.Uint64N(3*capacity))
			}
		}(w)
	}
	wg.Wait()
	hits, misses, entries := c.Stats()
	if hits+misses != workers*ops {
		t.Errorf("hits %d + misses %d ≠ %d Gets", hits, misses, workers*ops)
	}
	if entries > capacity {
		t.Errorf("%d entries, capacity %d", entries, capacity)
	}
}

// FuzzCacheModel runs a byte program against the cache and a map model:
// each pair of bytes is one operation — a Put (even first byte) or a Get
// (odd) on one of eight keys, at a capacity of 1–8 that the program's
// first byte picks. A hit must return the last value Put under its key,
// the cache must never hold more than its capacity, and hits + misses
// must equal the Gets made.
func FuzzCacheModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 0, 1, 1})
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 1, 1, 3, 3, 5, 5, 0, 1, 1, 1})
	f.Add([]byte{2, 0, 0, 2, 1, 4, 2, 1, 0, 1, 1, 0, 3, 1, 2, 1, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		capacity := int(prog[0]%8) + 1
		c := NewCache[int](capacity)
		last := map[byte]int{} // key → the last value Put under it
		gets := uint64(0)
		for pc := 1; pc+1 < len(prog); pc += 2 {
			op, k := prog[pc], prog[pc+1]%8
			key := []byte{k}
			if op%2 == 0 {
				c.Put(key, pc)
				last[k] = pc
			} else {
				gets++
				if v, ok := c.Get(key); ok && v != last[k] {
					t.Fatalf("op %d: Get(%d) = %d, last Put %d", pc, k, v, last[k])
				}
			}
			if _, _, n := c.Stats(); n > capacity {
				t.Fatalf("op %d: %d entries, capacity %d", pc, n, capacity)
			}
		}
		if hits, misses, _ := c.Stats(); hits+misses != gets {
			t.Fatalf("hits %d + misses %d ≠ %d Gets", hits, misses, gets)
		}
	})
}
