package textproc

import (
	"strings"
	"sync"
	"sync/atomic"
)

// TermID is a term's process-local integer identity under one Vocabulary.
// The low bit is the term's stopword bit and the rest is its 1-based
// index, so zero is never an id and an id answers "is this a stopword"
// without a lookup. Ids depend on which term a process met first; they
// never leave the process and nothing may be ordered by them.
type TermID uint32

// Stop reports whether the term is a stopword of its vocabulary's list.
func (id TermID) Stop() bool { return id&1 != 0 }

// Index is the term's dense 0-based index in its vocabulary.
func (id TermID) Index() int { return int(id>>1) - 1 }

// Vocabulary interns terms as TermIDs: append-only, safe for concurrent
// use, and lock-free for a reader whose terms are all known. Readers probe
// an immutable snapshot; the terms added since it was taken live in a
// small map under the lock, and once they are a quarter of the snapshot
// the two are merged into a new snapshot, so a term is copied O(1) times
// on average. Every term string is the vocabulary's own copy: interning a
// substring of a page body never pins the body.
type Vocabulary struct {
	stop *Stopwords
	snap atomic.Pointer[map[string]TermID]

	mu     sync.Mutex
	recent map[string]TermID
	n      int // terms interned, snapshot and recent
}

// NewVocabulary returns an empty vocabulary whose ids carry stopword bits
// from stop (nil: no term is a stopword).
func NewVocabulary(stop *Stopwords) *Vocabulary {
	v := &Vocabulary{stop: stop, recent: make(map[string]TermID)}
	v.snap.Store(new(map[string]TermID))
	return v
}

// Len reports the number of distinct terms interned so far.
func (v *Vocabulary) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.n
}

// AppendIDs appends the id of each token to dst, interning the tokens it
// has not seen. Known tokens cost one probe of the snapshot and no lock;
// a call that meets unknown ones takes the lock once for all of them.
func (v *Vocabulary) AppendIDs(dst []TermID, toks []Token) []TermID {
	snap := *v.snap.Load()
	start, missing := len(dst), false
	for _, t := range toks {
		id := snap[t]
		missing = missing || id == 0
		dst = append(dst, id)
	}
	if missing {
		v.intern(dst[start:], toks)
	}
	return dst
}

// intern fills the zero entries of ids with the ids of the matching toks,
// adding the terms that are new, and publishes a new snapshot when the
// recent terms have grown to a quarter of it.
func (v *Vocabulary) intern(ids []TermID, toks []Token) {
	v.mu.Lock()
	defer v.mu.Unlock()
	snap := *v.snap.Load() // a merge may have published since the caller's probe
	for i, t := range toks {
		if ids[i] != 0 {
			continue
		}
		if id, ok := snap[t]; ok {
			ids[i] = id
			continue
		}
		id, ok := v.recent[t]
		if !ok {
			v.n++
			id = TermID(v.n) << 1
			if v.stop.Contains(t) {
				id |= 1
			}
			v.recent[strings.Clone(t)] = id
		}
		ids[i] = id
	}
	if len(v.recent) >= len(snap)/4+16 {
		merged := make(map[string]TermID, len(snap)+len(v.recent))
		for t, id := range snap {
			merged[t] = id
		}
		for t, id := range v.recent {
			merged[t] = id
		}
		v.snap.Store(&merged)
		clear(v.recent)
	}
}

// MaxGramLen is the widest n-gram a GramKey holds: the paper's L = 3.
const MaxGramLen = 3

// GramKey is an n-gram of one to MaxGramLen term ids, zero-padded: a
// fixed-width value that identifies the gram without joining a string.
type GramKey [MaxGramLen]TermID

// GramOf packs ids (1 ≤ len ≤ MaxGramLen) into a key.
func GramOf(ids []TermID) GramKey {
	var k GramKey
	copy(k[:], ids)
	return k
}

// Len is the number of ids in the key.
func (k GramKey) Len() int {
	n := 0
	for n < MaxGramLen && k[n] != 0 {
		n++
	}
	return n
}

// GramWindow is one admissible window of an id stream: its key and the
// position of its first id.
type GramWindow struct {
	Key   GramKey
	Start int32
}

// IDGramConfig is NGramConfig over term ids: stopwords come from the ids'
// own bits, and the excluded ids (the seed's few) are compared directly.
type IDGramConfig struct {
	// MaxLen is the maximum gram length, 1 to MaxGramLen; 0 means 3.
	MaxLen int
	// Exclude drops every gram holding one of these ids.
	Exclude []TermID
}

// idFlagsPool holds the per-id flag scratch of AppendGramWindows.
var idFlagsPool = sync.Pool{New: func() any { return new([]uint8) }}

// AppendGramWindows appends every admissible window of ids to dst in the
// order AppendNGrams visits windows — every 1-gram left to right, then
// every 2-gram, up to MaxLen — repeats included. Admissibility is
// AppendNGrams': no excluded id anywhere, no stopword at either end. So
// the first occurrence of each key, in dst order, is AppendNGrams' output
// over the ids' terms (FuzzNGramsMatchesReference). The flag scratch is
// pooled; with a reused dst the call allocates nothing.
func AppendGramWindows(dst []GramWindow, ids []TermID, cfg IDGramConfig) []GramWindow {
	maxLen := cfg.MaxLen
	if maxLen <= 0 {
		maxLen = 3
	}
	if maxLen > MaxGramLen {
		panic("textproc: IDGramConfig.MaxLen exceeds MaxGramLen")
	}
	fp := idFlagsPool.Get().(*[]uint8)
	flags := (*fp)[:0]
	for _, id := range ids {
		var f uint8
		if id.Stop() {
			f |= tokStop
		}
		for _, x := range cfg.Exclude {
			if id == x {
				f |= tokExcluded
				break
			}
		}
		flags = append(flags, f)
	}
	for l := 1; l <= maxLen; l++ {
		for i := 0; i+l <= len(ids); i++ {
			if admissibleAt(flags, i, l) {
				dst = append(dst, GramWindow{Key: GramOf(ids[i : i+l]), Start: int32(i)})
			}
		}
	}
	*fp = flags
	idFlagsPool.Put(fp)
	return dst
}
