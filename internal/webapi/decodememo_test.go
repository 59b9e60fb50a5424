package webapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/store"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

// testBase is the base URL the decode tests scope their server-less
// clients to.
const testBase = "http://decode.test"

// testClient is a client of base and tok that was never dialed: one try
// per request, and memo as its decode memo (nil: every response is decoded
// afresh, the reference the memo is held to).
func testClient(base string, tok *textproc.Tokenizer, memo *sizedCache[decodedSearch]) *Client {
	return &Client{
		base:      base,
		http:      &http.Client{Timeout: 10 * time.Second},
		tok:       tok,
		retry:     RetryPolicy{MaxAttempts: 1}.withDefaults(),
		pageCache: make(map[corpus.PageID]*corpus.Page),
		memo:      memo,
		scope:     memoScope(base, tok),
	}
}

// samePage reports whether two parsed pages hold the same content.
func samePage(a, b *corpus.Page) bool {
	return a.ID == b.ID && a.Entity == b.Entity && a.URL == b.URL && a.Title == b.Title &&
		reflect.DeepEqual(a.Paras, b.Paras) && reflect.DeepEqual(a.Links, b.Links) &&
		reflect.DeepEqual(a.Tokens(), b.Tokens())
}

// sameDecode reports what differs between two decodes, "" when nothing.
func sameDecode(got, want decodedSearch) string {
	switch {
	case !reflect.DeepEqual(got.resp, want.resp):
		return "hit lists differ"
	case len(got.pages) != len(want.pages):
		return fmt.Sprintf("%d pages, want %d", len(got.pages), len(want.pages))
	case got.size != want.size || got.tok != want.tok:
		return "sizes or tokenizers differ"
	}
	for i := range got.pages {
		if !samePage(got.pages[i], want.pages[i]) {
			return fmt.Sprintf("page %d differs", got.pages[i].ID)
		}
	}
	return ""
}

// sameErr reports whether two decode outcomes failed alike.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// checkMemoDecode decodes body afresh, then through a memo of its own by a
// client that misses it and a second client of the same scope, and fails t
// unless all three outcomes agree — the same hits and pages, or the same
// error — and the memo holds an entry exactly when it may: body decoded
// cleanly as a search-with-pages frame of at most maxMemoFrame bytes that
// carried a page. Then the second client's pages are the first's. It
// returns the fresh decode.
func checkMemoDecode(t *testing.T, tok *textproc.Tokenizer, body []byte) (decodedSearch, error) {
	t.Helper()
	want, wantErr := testClient(testBase, tok, nil).decodeSearch(body)
	// Two entries leave room to catch a second insert; the production
	// memo's 4 096 slots would be allocated and cleared on every call.
	memo := newSizedCache(2, func(d decodedSearch) int { return d.size })
	first, second := testClient(testBase, tok, memo), testClient(testBase, tok, memo)
	var got [2]decodedSearch
	for i, c := range []*Client{first, second} {
		d, err := c.decodeSearch(body)
		if !sameErr(err, wantErr) {
			t.Fatalf("decode %d through the memo: error %v, fresh %v", i, err, wantErr)
		}
		if err == nil {
			if diff := sameDecode(d, want); diff != "" {
				t.Fatalf("decode %d through the memo: %s", i, diff)
			}
		}
		got[i] = d
	}
	stored := wantErr == nil && frameKind(body) == wireSearchPages && len(body) <= maxMemoFrame && len(want.pages) > 0
	if m := memo.metrics(); (m.Entries == 1) != stored || m.Entries > 1 {
		t.Fatalf("memo holds %d entries after decoding (error %v, %d bytes, kind %d)", m.Entries, wantErr, len(body), frameKind(body))
	}
	if n := second.met.decodedFromMemo.Load(); (n == 1) != stored {
		t.Fatalf("second client decoded %d responses from the memo", n)
	}
	if stored {
		for i := range got[0].pages {
			if got[1].pages[i] != got[0].pages[i] {
				t.Fatalf("a memo hit parsed page %d again", got[0].pages[i].ID)
			}
		}
	}
	return want, wantErr
}

// serveBody starts a server answering every request with body as a wire
// response.
func serveBody(t *testing.T, body []byte) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", wireContentType)
		w.Write(body) //nolint:errcheck // the client sees a short body as a fault
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// searchWithPages is Retrieve's search (with=pages, no have list) on c.
func searchWithPages(c *Client, complete bool) (SearchResponse, error) {
	return c.search(context.Background(), "search", "/search", url.Values{"with": {"pages"}}, "", nil, nil, complete)
}

// TestDecodeMemoMatchesFresh: for search-with-pages frames, gzipped and raw,
// and for a frame flagged Partial, a search answered from the memo returns
// what a memo-free client's does — the same hits, the same ErrPartial, and
// pages of the same content in its page cache — for a second client of the
// first's scope (which gets the very pages the first parsed) and for
// clients of another base URL (which get pages of their own, under their
// own URL: pages never cross scopes).
func TestDecodeMemoMatchesFresh(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	seeds := searchPagesSeeds(g)
	full, partial := seeds[2], seeds[1]
	two := full
	two.Hits = append([]SearchHit(nil), full.Hits...)
	for i := range two.Hits[2:] {
		two.Hits[2+i].HTML = ""
	}
	frame := func(resp SearchResponse, zip bool) []byte {
		return frameOf(wireSearchPages, zip, func(e *store.Enc) { encodeSearchPagesWire(e, resp) })
	}
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"full/gzip", frame(full, true)},
		{"two/raw", frame(two, false)},
		{"partial/gzip", frame(partial, true)},
		{"partial/raw", frame(partial, false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.frame) > maxMemoFrame {
				t.Fatalf("a %d-byte frame the memo would not keep", len(tc.frame))
			}
			bases := []string{serveBody(t, tc.frame), serveBody(t, tc.frame)}
			for _, complete := range []bool{true, false} {
				memo := newDecodeMemo()
				var firstPages map[corpus.PageID]*corpus.Page
				for scope, base := range bases {
					ref := testClient(base, g.Tokenizer, nil)
					want, wantErr := searchWithPages(ref, complete)
					if wantErr != nil && !errors.Is(wantErr, ErrPartial) {
						t.Fatal(wantErr)
					}
					for i := range 2 {
						c := testClient(base, g.Tokenizer, memo)
						got, err := searchWithPages(c, complete)
						if !sameErr(err, wantErr) || !reflect.DeepEqual(got, want) {
							t.Fatalf("scope %d client %d (complete %v): got %+v, %v; fresh %+v, %v", scope, i, complete, got, err, want, wantErr)
						}
						if fromMemo := c.Metrics().DecodedFromMemo; fromMemo != int64(i) {
							t.Errorf("scope %d client %d: %d responses from the memo, want %d", scope, i, fromMemo, i)
						}
						if len(c.pageCache) != len(ref.pageCache) || c.Metrics().PagesAttached != ref.Metrics().PagesAttached {
							t.Fatalf("scope %d client %d: holds %d pages, the fresh client %d", scope, i, len(c.pageCache), len(ref.pageCache))
						}
						for id, p := range c.pageCache {
							if !samePage(p, ref.pageCache[id]) {
								t.Fatalf("scope %d client %d: page %d differs from a fresh decode's", scope, i, id)
							}
							if scope == 0 && i == 0 {
								continue
							}
							if shared := firstPages[id] == p; shared != (scope == 0) {
								t.Fatalf("scope %d client %d: page %d shared with the first client: %v", scope, i, id, shared)
							}
						}
						if firstPages == nil {
							firstPages = c.pageCache
						}
					}
				}
				if m := memo.metrics(); m.Entries != len(bases) || m.Hits != uint64(len(bases)) {
					t.Errorf("complete %v: memo %+v, want an entry and a hit per scope", complete, m)
				}
			}
		})
	}
}

// TestDecodeMemoStoresOnlyAccepted: a frame that fails its CRC, its length
// check or its page-ID check fails and is retried as without the memo, and
// leaves no entry — the good frame the retry gets is the only one stored.
func TestDecodeMemoStoresOnlyAccepted(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	resp := searchPagesSeeds(g)[2]
	good := frameOf(wireSearchPages, true, func(e *store.Enc) { encodeSearchPagesWire(e, resp) })
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	n := len(resp.Hits)
	swapped := resp
	swapped.Hits = append([]SearchHit(nil), resp.Hits...)
	swapped.Hits[0].HTML, swapped.Hits[n-1].HTML = resp.Hits[n-1].HTML, resp.Hits[0].HTML
	for _, tc := range []struct {
		name string
		bad  []byte
	}{
		{"crc", flipped},
		{"truncated", good[:len(good)/2]},
		{"wrong id", frameOf(wireSearchPages, true, func(e *store.Enc) { encodeSearchPagesWire(e, swapped) })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var served atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				body := good
				if served.Add(1)%2 == 1 { // every first try gets the bad frame
					body = tc.bad
				}
				w.Write(body) //nolint:errcheck // the client sees a short body as a fault
			}))
			t.Cleanup(srv.Close)
			memo := newDecodeMemo()
			once := testClient(srv.URL, g.Tokenizer, memo)
			if _, err := searchWithPages(once, true); err == nil {
				t.Fatal("the bad frame was accepted")
			}
			if m := memo.metrics(); m.Entries != 0 {
				t.Fatalf("a rejected frame left %d entries", m.Entries)
			}
			served.Store(0)
			c := testClient(srv.URL, g.Tokenizer, memo)
			c.retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}.withDefaults()
			got, err := searchWithPages(c, true)
			if err != nil {
				t.Fatal(err)
			}
			if m := c.Metrics(); m.Retries != 1 || m.PagesAttached != int64(n) || len(got.Hits) != n {
				t.Fatalf("after a retry: %+v, %d hits", m, len(got.Hits))
			}
			if _, ok := memo.get(c.memoKey(nil, tc.bad)); ok {
				t.Fatal("the bad frame has an entry")
			}
			if _, ok := memo.get(c.memoKey(nil, good)); !ok || memo.metrics().Entries != 1 {
				t.Fatalf("memo %+v: the good frame is not its one entry", memo.metrics())
			}
		})
	}
}

// TestDecodeMemoConcurrent: eight clients of one scope decode one frame at
// once, again and again, under -race. Each gets pages of the content a
// fresh decode gives and keeps one page per ID; the memo ends with one
// entry and has counted every lookup.
func TestDecodeMemoConcurrent(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	frame := marshalFrame(wireSearchPages, func(e *store.Enc) { encodeSearchPagesWire(e, searchPagesSeeds(g)[2]) })
	want, err := testClient(testBase, g.Tokenizer, nil).decodeSearch(frame)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 50
	memo := newDecodeMemo()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := testClient(testBase, g.Tokenizer, memo)
			for range rounds {
				d, err := c.decodeSearch(frame)
				if err == nil {
					if diff := sameDecode(d, want); diff != "" {
						err = errors.New(diff)
					}
				}
				if err != nil {
					errs <- err
					return
				}
				c.adopt(d.pages)
			}
			if m := c.Metrics(); len(c.pageCache) != len(want.pages) || m.PagesAttached != int64(len(want.pages)) {
				errs <- fmt.Errorf("client holds %d pages, attached %d; want %d", len(c.pageCache), m.PagesAttached, len(want.pages))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m := memo.metrics(); m.Entries != 1 || m.Hits+m.Misses != workers*rounds || m.Bytes != int64(want.size) {
		t.Errorf("memo %+v after %d lookups of one %d-byte entry", m, workers*rounds, want.size)
	}
}

// TestDialedClientsShareDecodes: two clients dialed to one server, in one
// process, share the decode memo — the second client's repeat of the first
// one's search is answered from it, with the same ranked pages — and
// report it in ClientMetrics.
func TestDialedClientsShareDecodes(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(g.Corpus, bootLive(g.Corpus), nil).Handler())
	t.Cleanup(srv.Close)
	ctx := context.Background()
	seed, query := []textproc.Token{"marc", "snir"}, []textproc.Token{"research"}
	var results [2][]string
	var metrics [2]ClientMetrics
	for i := range results {
		c, err := DialContext(ctx, srv.URL, g.Tokenizer, ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := c.Retrieve(ctx, nil, seed, query)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			results[i] = append(results[i], fmt.Sprintf("%d %s %v %d", r.Page.ID, r.Page.URL, r.Score, len(r.Page.Tokens())))
		}
		metrics[i] = c.Metrics()
	}
	if len(results[0]) == 0 || !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("the two clients retrieved %v and %v", results[0], results[1])
	}
	if metrics[0].DecodedFromMemo != 0 || metrics[1].DecodedFromMemo != 1 {
		t.Errorf("responses from the memo: %d then %d, want 0 then 1", metrics[0].DecodedFromMemo, metrics[1].DecodedFromMemo)
	}
	if m := metrics[1]; m.PagesAttached != int64(len(results[1])) || m.DecodeMemo.Entries == 0 || m.DecodeMemo.Hits == 0 || m.DecodeMemo.Bytes <= 0 {
		t.Errorf("second client: %+v", m)
	}
}

// BenchmarkDecodeSearchPagesAllocs pins what a client's decode of a
// gzipped five-page search frame allocates. hit: the frame was decoded
// before in the client's scope, so the decode memo answers — the copied
// hit list, the key on the stack. miss: every iteration decodes a frame
// the memo does not hold (two frames alternate in a memo of one entry):
// inflating, five parsed pages, the insert. Gated by scripts/alloc_gate.sh.
func BenchmarkDecodeSearchPagesAllocs(b *testing.B) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		b.Fatal(err)
	}
	resp := searchPagesSeeds(g)[2]
	var frames [2][]byte
	for i := range frames {
		r := resp
		r.Query = fmt.Sprint(resp.Query, i)
		frames[i] = marshalFrame(wireSearchPages, func(e *store.Enc) { encodeSearchPagesWire(e, r) })
	}
	for _, bc := range []struct {
		name  string
		memo  *sizedCache[decodedSearch]
		cycle int
	}{
		{"hit", newDecodeMemo(), 1},
		{"miss", newSizedCache(1, func(d decodedSearch) int { return d.size }), 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := testClient(testBase, g.Tokenizer, bc.memo)
			if _, err := c.decodeSearch(frames[bc.cycle-1]); err != nil { // warm the pools
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.decodeSearch(frames[i%bc.cycle]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
