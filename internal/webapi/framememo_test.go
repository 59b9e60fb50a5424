package webapi

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"l2q/internal/html"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/synth"
)

// freshFrame is the frame wrapFrame builds for payload, deflated by a gzip
// writer of its own rather than a pooled one: the memo-free reference.
func freshFrame(t testing.TB, kind byte, payload []byte) []byte {
	t.Helper()
	if len(payload) >= compressMin {
		var z bytes.Buffer
		zw, err := gzip.NewWriterLevel(&z, frameGzipLevel)
		if err != nil {
			t.Fatal(err)
		}
		zw.Write(payload) //nolint:errcheck // bytes.Buffer cannot fail
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if z.Len() < len(payload) {
			return gzipFrame(kind, z.Bytes())
		}
	}
	return wrapFrame(kind, payload, false)
}

// noise is n incompressible bytes: a payload whose frame falls back to raw.
func noise(n int, seed uint64) []byte {
	r := rand.New(rand.NewPCG(seed, 1))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint32())
	}
	return b
}

// payloadOf is what encode writes.
func payloadOf(encode func(*store.Enc)) []byte {
	var e store.Enc
	encode(&e)
	return e.Data()
}

// TestFrameMemoMatchesFresh: for every response kind, gzipped, raw
// fallback and under the threshold, what the memo serves — on the miss
// that builds it and on a hit after the pooled gzip writer has framed other
// payloads — is byte for byte the frame a memo-free build makes, and a hit
// is the stored frame itself, not a rebuilt one.
func TestFrameMemoMatchesFresh(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	seeds := searchPagesSeeds(g)
	var many SearchResponse
	for _, p := range g.Corpus.Pages[:40] {
		many.Hits = append(many.Hits, SearchHit{PageID: p.ID, URL: p.URL, Title: p.Title, Score: -float64(p.ID)})
	}
	st := Stats{Domain: "researchers", NumEntities: 30, NumPages: 300, TopK: 5}
	bigStats := st
	bigStats.Domain = strings.Repeat("researchers ", 100)
	cases := []struct {
		name    string
		kind    byte
		payload []byte
	}{
		{"stats", wireStats, payloadOf(func(e *store.Enc) { encodeStatsWire(e, st) })},
		{"stats/gzip", wireStats, payloadOf(func(e *store.Enc) { encodeStatsWire(e, bigStats) })},
		{"search", wireSearch, payloadOf(func(e *store.Enc) { encodeSearchWire(e, seeds[0]) })},
		{"search/gzip", wireSearch, payloadOf(func(e *store.Enc) { encodeSearchWire(e, many) })},
		{"page/gzip", wirePage, []byte(html.RenderPage(g.Corpus.Pages[0]))},
		{"ingest", wireIngest, payloadOf(func(e *store.Enc) { encodeIngestAckWire(e, IngestResponse{Ingested: 3, NumDocs: 303}) })},
		{"searchpages/gzip", wireSearchPages, payloadOf(func(e *store.Enc) { encodeSearchPagesWire(e, seeds[2]) })},
		{"searchpages/one", wireSearchPages, payloadOf(func(e *store.Enc) { encodeSearchPagesWire(e, seeds[1]) })},
	}
	for i, kind := range []byte{wireStats, wireSearch, wirePage, wireIngest, wireSearchPages} {
		cases = append(cases, struct {
			name    string
			kind    byte
			payload []byte
		}{"raw", kind, noise(2*compressMin, uint64(i))})
	}
	memo := newFrameMemo()
	for _, tc := range cases {
		want := freshFrame(t, tc.kind, tc.payload)
		memoized := len(tc.payload) >= compressMin
		if memoized && len(want) > maxMemoFrame {
			t.Fatalf("%s: a %d-byte frame the memo would not keep", tc.name, len(want))
		}
		m0 := memo.metrics()
		first := memo.wrap(tc.kind, tc.payload)
		m1 := memo.metrics()
		for j := range 8 { // other payloads through the same pooled writer
			memo.wrap(wirePage, noise(compressMin+j, 100+uint64(j)))
			wrapFrame(wireSearchPages, payloadOf(func(e *store.Enc) { encodeSearchPagesWire(e, seeds[j%3]) }), true)
		}
		m2 := memo.metrics()
		hit := memo.wrap(tc.kind, tc.payload)
		m3 := memo.metrics()
		if !bytes.Equal(first, want) || !bytes.Equal(hit, want) {
			t.Errorf("%s: memo frames differ from a fresh build (first %v, hit %v)", tc.name, bytes.Equal(first, want), bytes.Equal(hit, want))
		}
		if !bytes.Equal(hit, wrapFrame(tc.kind, tc.payload, memoized)) {
			t.Errorf("%s: memo frame differs from wrapFrame's", tc.name)
		}
		switch {
		case !memoized && (m1 != m0 || m3 != m2):
			t.Errorf("%s: a %d-byte payload went through the memo: %+v → %+v, %+v → %+v", tc.name, len(tc.payload), m0, m1, m2, m3)
		case memoized && (m1.Misses != m0.Misses+1 || m3.Hits != m2.Hits+1 || &hit[0] != &first[0]):
			t.Errorf("%s: not a miss, then a hit on the stored frame: %+v → %+v, %+v → %+v", tc.name, m0, m1, m2, m3)
		}
	}
	// Through the server: frame is marshalFrame, memo or not.
	s := &Server{frames: newFrameMemo()}
	for _, tc := range cases {
		enc := func(e *store.Enc) { e.Raw(tc.payload) }
		for range 2 {
			if got := s.frame(tc.kind, enc); !bytes.Equal(got, marshalFrame(tc.kind, enc)) {
				t.Errorf("%s: Server.frame differs from marshalFrame", tc.name)
			}
		}
	}
}

// TestFrameMemoBounded: the memo never holds more than its capacity, its
// byte count is the size of the frames it holds, and a frame past
// maxMemoFrame is served but not kept.
func TestFrameMemoBounded(t *testing.T) {
	memo := newFrameMemo()
	payload := make([]byte, compressMin)
	const extra = 100
	sizes := make([]int64, 0, search.DefaultCacheSize+extra)
	for i := range search.DefaultCacheSize + extra {
		binary.BigEndian.PutUint32(payload, uint32(i))
		sizes = append(sizes, int64(len(memo.wrap(wirePage, payload))))
		if m := memo.metrics(); m.Entries > search.DefaultCacheSize {
			t.Fatalf("after %d distinct frames the memo holds %d, over its capacity %d", i+1, m.Entries, search.DefaultCacheSize)
		}
	}
	var held int64
	for _, n := range sizes[extra:] {
		held += n
	}
	m := memo.metrics()
	if m.Entries != search.DefaultCacheSize || m.Misses != uint64(len(sizes)) || m.Hits != 0 || m.Bytes != held {
		t.Fatalf("after %d distinct frames: %+v, want %d entries of %d bytes", len(sizes), m, search.DefaultCacheSize, held)
	}

	big := noise(maxMemoFrame+1, 7)
	want := freshFrame(t, wirePage, big)
	if len(want) <= maxMemoFrame {
		t.Fatalf("a %d-byte frame is not oversized", len(want))
	}
	for range 2 {
		if got := memo.wrap(wirePage, big); !bytes.Equal(got, want) {
			t.Fatal("oversized frame served wrong")
		}
	}
	if after := memo.metrics(); after.Entries != m.Entries || after.Bytes != m.Bytes || after.Hits != 0 || after.Misses != m.Misses+2 {
		t.Errorf("an oversized frame was kept: %+v → %+v", m, after)
	}
}

// TestFrameMemoConcurrent: many goroutines framing overlapping payloads
// through one server — the memo is state every request goroutine shares —
// each get the fresh frame, and the counters add up (run it under -race).
func TestFrameMemoConcurrent(t *testing.T) {
	var payloads [][]byte
	for i := range 12 {
		p := bytes.Repeat([]byte{'a' + byte(i)}, compressMin+64*i) // gzipped
		payloads = append(payloads, p)
	}
	payloads = append(payloads, []byte("tiny"), noise(2*compressMin, 1), noise(maxMemoFrame+1, 2))
	kept, wantBytes := 0, int64(0)
	want := make([][]byte, len(payloads))
	for i, p := range payloads {
		want[i] = freshFrame(t, wireSearchPages, p)
		if len(p) >= compressMin && len(want[i]) <= maxMemoFrame {
			kept++
			wantBytes += int64(len(want[i]))
		}
	}
	s := &Server{frames: newFrameMemo()}
	const workers, rounds = 8, 150
	var (
		wg       sync.WaitGroup
		eligible = make([]int, workers)
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				j := (w*5 + i) % len(payloads)
				got := s.frame(wireSearchPages, func(e *store.Enc) { e.Raw(payloads[j]) })
				if !bytes.Equal(got, want[j]) {
					t.Errorf("worker %d: payload %d framed wrong", w, j)
					return
				}
				if len(payloads[j]) >= compressMin {
					eligible[w]++
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range eligible {
		total += n
	}
	if m := s.frames.metrics(); m.Hits+m.Misses != uint64(total) || m.Hits == 0 || m.Entries != kept || m.Bytes != wantBytes {
		t.Errorf("after %d memo lookups: %+v, want %d entries of %d bytes", total, m, kept, wantBytes)
	}
}

// TestFramesMetrics: on every server shape, /api/v1/metrics reports the
// frame memo — a repeated framed search is a hit, an unseen one a miss,
// and a JSON search touches neither.
func TestFramesMetrics(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range startEveryShape(t, g, nil) {
		t.Run(shape.name, func(t *testing.T) {
			frames := func() CacheMetrics {
				t.Helper()
				status, b := rawGet(t, shape.url+apiRoot+"/metrics", true)
				var m ServerMetrics
				if err := json.Unmarshal(b, &m); status != http.StatusOK || err != nil {
					t.Fatalf("metrics = %d, %v", status, err)
				}
				return m.Frames
			}
			search := func(entity int, wire bool) {
				t.Helper()
				q := url.Values{"seed": g.Corpus.Entities[entity].SeedTokens(), "q": {"research"}, "with": {"pages"}}
				if status, b := rawGet(t, shape.url+apiRoot+"/search?"+q.Encode(), wire); status != http.StatusOK || isWireFrame(b) != wire {
					t.Fatalf("search = %d, framed %v", status, isWireFrame(b))
				}
			}
			m0 := frames()
			search(1, true)
			m1 := frames()
			search(1, true)
			m2 := frames()
			search(2, true)
			m3 := frames()
			search(3, false)
			m4 := frames()
			if m1.Misses != m0.Misses+1 || m1.Entries != m0.Entries+1 || m1.Bytes <= m0.Bytes {
				t.Errorf("first framed search: %+v → %+v, want one miss and one entry more", m0, m1)
			}
			if m2.Hits != m1.Hits+1 || m2.Misses != m1.Misses || m2.Entries != m1.Entries || m2.Bytes != m1.Bytes {
				t.Errorf("repeated framed search: %+v → %+v, want one hit more", m1, m2)
			}
			if m3.Misses != m2.Misses+1 || m3.Hits != m2.Hits {
				t.Errorf("unseen framed search: %+v → %+v, want one miss more", m2, m3)
			}
			if m4 != m3 {
				t.Errorf("JSON search moved the frame memo: %+v → %+v", m3, m4)
			}
		})
	}
}
