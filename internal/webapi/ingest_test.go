package webapi

// The live serving surface's parity and contract tests: a server grown
// through POST /api/v1/ingest must rank byte-identically to a frozen
// server rebuilt from the same pages — across segment boundaries, both
// codecs, and retried (duplicate) deliveries.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/synth"
)

// liveFixture is a live server bootstrapped from a PREFIX of the
// synthetic corpus; the remainder is the ingest feed.
type liveFixture struct {
	g    *synth.Generated
	boot *corpus.Corpus
	live *search.LiveEngine
	srv  *httptest.Server
	rest []*corpus.Page // pages not yet ingested, in canonical order
}

func newLiveFixture(t *testing.T, bootFrac float64) *liveFixture {
	t.Helper()
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	all := g.Corpus.Pages
	n := int(float64(len(all)) * bootFrac)
	boot := corpus.New(g.Corpus.Domain)
	for _, p := range all[:n] {
		if boot.Entity(p.Entity) == nil {
			if err := boot.AddEntity(g.Corpus.Entity(p.Entity)); err != nil {
				t.Fatal(err)
			}
		}
		if err := boot.AddPage(p); err != nil {
			t.Fatal(err)
		}
	}
	// A small memtable forces several segment seals over the ingest feed,
	// so parity is checked across real segment boundaries.
	live := search.NewLiveEngine(search.BuildIndex(boot.Pages), search.Options{}, search.LiveOptions{MemtableDocs: 16})
	srv := httptest.NewServer(NewServer(boot, live, g.Tokenizer).Handler())
	t.Cleanup(srv.Close)
	return &liveFixture{g: g, boot: boot, live: live, srv: srv, rest: all[n:]}
}

// ingestPage converts a corpus page to its wire form. Only TEXT travels:
// the server re-tokenizes with the corpus tokenizer, which is exactly
// what the parity tests verify.
func ingestPage(g *synth.Generated, p *corpus.Page) IngestPage {
	e := g.Corpus.Entity(p.Entity)
	ip := IngestPage{
		ID:         p.ID,
		Entity:     p.Entity,
		EntityName: e.Name,
		SeedQuery:  e.SeedQuery,
		URL:        p.URL,
		Title:      p.Title,
		Links:      p.Links,
	}
	for i := range p.Paras {
		ip.Paras = append(ip.Paras, IngestParagraph{Text: p.Paras[i].Text, Aspect: string(p.Paras[i].Aspect)})
	}
	return ip
}

// TestIngestGrownMatchesRebuilt is the headline parity test through the
// HTTP boundary: grow a live server page by page over the API (in both
// codecs), then hold every entity's seeded search to the exact ranking
// of a frozen engine rebuilt from scratch over the full corpus.
func TestIngestGrownMatchesRebuilt(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecAuto} {
		t.Run(codecName(codec), func(t *testing.T) {
			f := newLiveFixture(t, 0.4)
			c, err := DialContext(context.Background(), f.srv.URL, f.g.Tokenizer, ClientOptions{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			if codec == CodecAuto && !c.WireNegotiated() {
				t.Fatal("dial probe did not negotiate the wire codec")
			}
			ctx := context.Background()
			// Uneven batch sizes so ingest batches straddle memtable seals.
			for i := 0; i < len(f.rest); {
				n := 7 + i%11
				if i+n > len(f.rest) {
					n = len(f.rest) - i
				}
				req := IngestRequest{}
				for _, p := range f.rest[i : i+n] {
					req.Pages = append(req.Pages, ingestPage(f.g, p))
				}
				resp, err := c.Ingest(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Ingested != n || resp.Duplicates != 0 {
					t.Fatalf("batch at %d: ingested %d dup %d, want %d/0", i, resp.Ingested, resp.Duplicates, n)
				}
				i += n
			}
			f.live.Quiesce()

			frozen := search.NewEngine(search.BuildIndex(f.g.Corpus.Pages))
			if got, want := f.live.View().NumDocs(), frozen.Index().NumDocs(); got != want {
				t.Fatalf("live has %d docs, rebuild has %d", got, want)
			}
			for _, e := range f.g.Corpus.Entities {
				seed := e.SeedTokens()
				for _, q := range [][]string{{"research"}, {"research", "award"}, nil} {
					want := frozen.SearchWithSeed(seed, q)
					got, err := c.Retrieve(ctx, nil, seed, q)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("entity %d query %v: grown %d hits, rebuilt %d", e.ID, q, len(got), len(want))
					}
					for i := range want {
						if got[i].Page.ID != want[i].Page.ID {
							t.Fatalf("entity %d query %v rank %d: grown page %d, rebuilt %d",
								e.ID, q, i, got[i].Page.ID, want[i].Page.ID)
						}
						if d := got[i].Score - want[i].Score; d > 1e-12 || d < -1e-12 {
							t.Fatalf("entity %d query %v rank %d: score drift %v", e.ID, q, i, d)
						}
					}
				}
			}
		})
	}
}

// TestIngestDuplicateDelivery: re-delivering a batch (the client retry
// path after a lost ack) is acknowledged as duplicates and changes no
// collection statistic.
func TestIngestDuplicateDelivery(t *testing.T) {
	f := newLiveFixture(t, 0.5)
	c, err := DialContext(context.Background(), f.srv.URL, f.g.Tokenizer, ClientOptions{Codec: CodecJSON})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := IngestRequest{}
	for _, p := range f.rest[:5] {
		req.Pages = append(req.Pages, ingestPage(f.g, p))
	}
	first, err := c.Ingest(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Ingested != 5 || first.Duplicates != 0 {
		t.Fatalf("first delivery: %+v", first)
	}
	again, err := c.Ingest(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Ingested != 0 || again.Duplicates != 5 {
		t.Fatalf("duplicate delivery: %+v", again)
	}
	if again.NumDocs != first.NumDocs {
		t.Fatalf("duplicate delivery moved numDocs %d → %d", first.NumDocs, again.NumDocs)
	}
	// A mixed batch applies the new page and skips the rest.
	req.Pages = append(req.Pages, ingestPage(f.g, f.rest[5]))
	mixed, err := c.Ingest(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Ingested != 1 || mixed.Duplicates != 5 {
		t.Fatalf("mixed delivery: %+v", mixed)
	}
}

// TestIngestRejectsBadBatches: contract errors reject the whole batch
// before any mutation, and a frozen server refuses the route outright.
func TestIngestRejectsBadBatches(t *testing.T) {
	f := newLiveFixture(t, 0.5)
	c, err := DialContext(context.Background(), f.srv.URL, f.g.Tokenizer, ClientOptions{Codec: CodecJSON})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	docsBefore := f.live.View().NumDocs()

	bad := IngestRequest{Pages: []IngestPage{
		ingestPage(f.g, f.rest[0]),
		{ID: 999999, Entity: 999999, Paras: []IngestParagraph{{Text: "orphan text"}}},
	}}
	_, err = c.Ingest(ctx, bad)
	if !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("unknown-entity batch: got %v, want 400", err)
	}
	if f.live.View().NumDocs() != docsBefore {
		t.Fatal("rejected batch mutated the engine")
	}

	if _, err := c.Ingest(ctx, IngestRequest{}); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("empty batch: got %v, want 400", err)
	}
	noParas := IngestRequest{Pages: []IngestPage{{ID: 999998, Entity: f.rest[0].Entity}}}
	if _, err := c.Ingest(ctx, noParas); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("empty page: got %v, want 400", err)
	}

	// The frozen fixture's server has no live engine: 501, non-retryable.
	frozen := newFixture(t)
	_, err = frozen.client.Ingest(ctx, IngestRequest{Pages: []IngestPage{ingestPage(f.g, f.rest[0])}})
	if !isStatus(err, http.StatusNotImplemented) {
		t.Fatalf("frozen server: got %v, want 501", err)
	}
	// The envelope says not to retry and the client obeys: one attempt.
	var te *TransportError
	if errors.As(err, &te); te.Attempts != 1 || te.Code != "not_implemented" {
		t.Fatalf("frozen server: %d attempt(s), code %q; want 1, not_implemented", te.Attempts, te.Code)
	}
	// The one backend type reports live gauges only where it holds a live
	// engine.
	for _, tc := range []struct {
		name, url string
		wantLive  bool
	}{{"frozen", frozen.srv.URL, false}, {"live", f.srv.URL, true}} {
		resp, err := http.Get(tc.url + apiRoot + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if _, has := m["live"]; err != nil || has != tc.wantLive {
			t.Fatalf("%s server's metrics: live section present = %v (decode %v), want %v", tc.name, has, err, tc.wantLive)
		}
	}
}

// TestIngestRegistersEntities: pages of an unseen entity auto-register
// it, and it appears on /api/v1/entities with the supplied identity.
func TestIngestRegistersEntities(t *testing.T) {
	f := newLiveFixture(t, 0.3)
	c, err := DialContext(context.Background(), f.srv.URL, f.g.Tokenizer, ClientOptions{Codec: CodecJSON})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := IngestRequest{}
	for _, p := range f.rest {
		req.Pages = append(req.Pages, ingestPage(f.g, p))
	}
	if _, err := c.Ingest(ctx, req); err != nil {
		t.Fatal(err)
	}
	ents, err := c.Entities(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != f.g.Corpus.NumEntities() {
		t.Fatalf("got %d entities, want %d", len(ents), f.g.Corpus.NumEntities())
	}
	for _, ei := range ents {
		e := f.g.Corpus.Entity(ei.ID)
		if e == nil || e.Name != ei.Name || e.SeedQuery != ei.SeedQuery {
			t.Fatalf("entity %d identity drifted: %+v", ei.ID, ei)
		}
	}
	// A new entity's registration info need only appear on ONE page of
	// the batch: later pages reference the ID bare (the natural client
	// shape — send the identity once, then just pages).
	once := IngestRequest{Pages: []IngestPage{
		{ID: 800001, Entity: 8001, EntityName: "Once Registered", SeedQuery: "once registered",
			Paras: []IngestParagraph{{Text: "first page registers"}}},
		{ID: 800002, Entity: 8001, Paras: []IngestParagraph{{Text: "second page references"}}},
		{ID: 800003, Entity: 8001, Paras: []IngestParagraph{{Text: "third page references"}}},
	}}
	or, err := c.Ingest(ctx, once)
	if err != nil {
		t.Fatalf("single-registration batch rejected: %v", err)
	}
	if or.Ingested != 3 {
		t.Fatalf("single-registration batch: %+v", or)
	}
	// But info arriving only AFTER the first bare reference stays a
	// whole-batch contract error.
	late := IngestRequest{Pages: []IngestPage{
		{ID: 800004, Entity: 8002, Paras: []IngestParagraph{{Text: "bare reference"}}},
		{ID: 800005, Entity: 8002, EntityName: "Too Late", Paras: []IngestParagraph{{Text: "info"}}},
	}}
	if _, err := c.Ingest(ctx, late); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("late-registration batch: got %v, want 400", err)
	}

	// Stats and metrics reflect the growth (corpus + the 3 extra pages).
	wantPages := f.g.Corpus.NumPages() + 3
	sresp, err := http.Get(f.srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumPages != wantPages {
		t.Fatalf("stats numPages %d, want %d", st.NumPages, wantPages)
	}
	resp, err := http.Get(f.srv.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m ServerMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Live == nil || m.Live.NumDocs != wantPages || m.Live.Segments < 1 {
		t.Fatalf("live metrics missing or stale: %+v", m.Live)
	}
}

// codecName labels a subtest per negotiation mode.
func codecName(c Codec) string {
	switch c {
	case CodecJSON:
		return "json"
	case CodecBinary:
		return "binary"
	default:
		return "auto"
	}
}

// TestIngestWireRoundTrip holds the binary ingest codecs to decoded-value
// parity with the JSON structures, including the degenerate shapes the
// negotiation-matrix rule calls out (nil slices stay nil).
func TestIngestWireRoundTrip(t *testing.T) {
	req := IngestRequest{Pages: []IngestPage{
		{
			ID: 7, Entity: 3, EntityName: "Ada Lovelace", SeedQuery: "ada lovelace analytical",
			URL: "http://example.test/7", Title: "Notes",
			Paras: []IngestParagraph{{Text: "first program", Aspect: "RESEARCH"}, {Text: "filler"}},
			Links: []corpus.PageID{1, 9, 4},
		},
		{ID: 8, Entity: 3, Paras: []IngestParagraph{{Text: strings.Repeat("long text ", 400)}}},
	}}
	frame := marshalFrame(wireIngest, func(e *store.Enc) { encodeIngestWire(e, req) })
	var got IngestRequest
	if err := decodeFramePayload(frame, wireIngest, func(d *store.Dec) { got = decodeIngestWire(d) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Errorf("ingest round trip: got %+v want %+v", got, req)
	}

	ack := IngestResponse{Ingested: 2, Duplicates: 1, NumDocs: 42, Epoch: 9, Segments: 3}
	aframe := frameOf(wireIngest, false, func(e *store.Enc) { encodeIngestAckWire(e, ack) })
	var gotAck IngestResponse
	if err := decodeFramePayload(aframe, wireIngest, func(d *store.Dec) { gotAck = decodeIngestAckWire(d) }); err != nil {
		t.Fatal(err)
	}
	if gotAck != ack {
		t.Errorf("ack round trip: got %+v want %+v", gotAck, ack)
	}
}

// isStatus reports whether err is a transport failure with the given
// terminal HTTP status.
func isStatus(err error, status int) bool {
	var te *TransportError
	return errors.As(err, &te) && te.Status == status
}

// FuzzIngestBody throws raw bytes — JSON, one wireIngest frame (gzipped
// or not), or neither — at POST /api/v1/ingest on a writable server over
// a tiny corpus, fresh per input. It must never panic; a 200 must account
// for every page the body decodes to (Ingested + Duplicates) and grow the
// view by exactly Ingested documents; any other answer rejects the whole
// batch, leaving epoch and page count as they were.
func FuzzIngestBody(f *testing.F) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		f.Fatal(err)
	}
	bootIDs := []corpus.EntityID{g.Corpus.Entities[0].ID, g.Corpus.Entities[1].ID}
	feed := g.Corpus.PagesOf(g.Corpus.Entities[2].ID)
	known := g.Corpus.PagesOf(bootIDs[0])[0]

	// The bodies ingest_test.go posts, in both encodings.
	batch := func(pages ...*corpus.Page) IngestRequest {
		var req IngestRequest
		for _, p := range pages {
			req.Pages = append(req.Pages, ingestPage(g, p))
		}
		return req
	}
	for _, req := range []IngestRequest{
		batch(feed[:3]...),
		batch(known, feed[0], feed[0]), // a held page, then one twice
		{Pages: []IngestPage{ingestPage(g, feed[0]), {ID: 999999, Entity: 999999, Paras: []IngestParagraph{{Text: "orphan text"}}}}},
		{},
		{Pages: []IngestPage{{ID: 999998, Entity: bootIDs[0]}}},
		{Pages: []IngestPage{
			{ID: 800001, Entity: 8001, EntityName: "Once Registered", SeedQuery: "once registered",
				Paras: []IngestParagraph{{Text: "first page registers"}}},
			{ID: 800002, Entity: 8001, Paras: []IngestParagraph{{Text: "second page references"}}},
		}},
	} {
		js, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
		encode := func(e *store.Enc) { encodeIngestWire(e, req) }
		plain := frameOf(wireIngest, false, encode)
		f.Add(plain)
		f.Add(frameOf(wireIngest, true, encode)) // gzip-flagged
		f.Add(plain[:len(plain)-3])              // truncated
		badCRC := bytes.Clone(plain)
		badCRC[len(badCRC)-1] ^= 0xff
		f.Add(badCRC)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		c := g.Corpus.Subset(bootIDs)
		live := search.NewLiveEngine(search.BuildIndex(c.Pages), search.Options{},
			search.LiveOptions{CompactFanIn: -1})
		srv := NewServer(c, live, g.Tokenizer)
		docs, epoch, pages := live.View().NumDocs(), live.View().Epoch(), c.NumPages()

		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, apiRoot+"/ingest", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			if live.View().Epoch() != epoch || c.NumPages() != pages {
				t.Fatalf("answered %d yet moved epoch %d → %d, pages %d → %d",
					rec.Code, epoch, live.View().Epoch(), pages, c.NumPages())
			}
			return
		}
		var req IngestRequest
		var err error
		if isWireFrame(body) {
			err = decodeFramePayload(body, wireIngest, func(d *store.Dec) { req = decodeIngestWire(d) })
		} else {
			err = json.Unmarshal(body, &req)
		}
		if err != nil {
			t.Fatalf("answered 200 to a body that does not decode: %v", err)
		}
		var resp IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Ingested+resp.Duplicates != len(req.Pages) {
			t.Fatalf("%d pages decoded, %d ingested + %d duplicates", len(req.Pages), resp.Ingested, resp.Duplicates)
		}
		if got := live.View().NumDocs(); got != docs+resp.Ingested {
			t.Fatalf("view holds %d docs after ingesting %d onto %d", got, resp.Ingested, docs)
		}
	})
}
