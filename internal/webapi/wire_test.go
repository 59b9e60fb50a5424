package webapi

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/harvest"
	"l2q/internal/html"
	"l2q/internal/store"
	"l2q/internal/synth"
	"l2q/internal/types"
)

// frameOf frames what encode writes, gzipped (when that is smaller) or not,
// whatever its size: both encodings a decoder must take.
func frameOf(kind byte, zip bool, encode func(*store.Enc)) []byte {
	var e store.Enc
	encode(&e)
	return wrapFrame(kind, e.Data(), zip)
}

// roundTripFrame encodes one payload into a frame and opens it again.
func roundTripFrame(t *testing.T, kind byte, encode func(*store.Enc)) []byte {
	t.Helper()
	payload, err := openFrame(marshalFrame(kind, encode), kind)
	if err != nil {
		t.Fatalf("openFrame: %v", err)
	}
	return payload
}

func TestWireFrameRoundTrips(t *testing.T) {
	st := Stats{Domain: "cars", NumEntities: 3, NumPages: 40, NumTerms: 900,
		TotalTokens: 12345, Mu: 2000.5, TopK: 10}
	payload := roundTripFrame(t, wireStats, func(e *store.Enc) { encodeStatsWire(e, st) })
	d := store.NewDec(payload)
	if got := decodeStatsWire(d); got != st || d.Err() != nil || !d.Done() {
		t.Errorf("stats round trip: got %+v want %+v (err %v)", got, st, d.Err())
	}

	sr := SearchResponse{Query: "engine safety", Seed: "volvo", Hits: []SearchHit{
		{PageID: 7, URL: "/page/7.html", Title: "t7", Score: -3.25},
		{PageID: 0, URL: "/page/0.html", Title: "", Score: 0},
	}}
	payload = roundTripFrame(t, wireSearch, func(e *store.Enc) { encodeSearchWire(e, sr) })
	d = store.NewDec(payload)
	if got := decodeSearchWire(d); !reflect.DeepEqual(got, sr) || !d.Done() {
		t.Errorf("search round trip: got %+v want %+v", got, sr)
	}
}

func TestWireFrameCompression(t *testing.T) {
	big := bytes.Repeat([]byte("the same paragraph over and over "), 200)
	framed := marshalFrame(wirePage, func(e *store.Enc) { e.Raw(big) })
	if framed[len(wireMagic)+1]&wireFlagGzip == 0 {
		t.Fatal("large compressible payload not gzipped")
	}
	if len(framed) >= len(big) {
		t.Errorf("compressed frame (%d bytes) not smaller than payload (%d)", len(framed), len(big))
	}
	payload, err := openFrame(framed, wirePage)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, big) {
		t.Error("gzipped payload did not round trip")
	}

	// Below the threshold: no compression flag, payload verbatim.
	small := []byte("tiny")
	framed = marshalFrame(wirePage, func(e *store.Enc) { e.Raw(small) })
	if framed[len(wireMagic)+1]&wireFlagGzip != 0 {
		t.Error("sub-threshold payload was gzipped")
	}
}

func TestWireFrameCorruption(t *testing.T) {
	frame := frameOf(wireSearch, false, func(e *store.Enc) {
		encodeSearchWire(e, SearchResponse{Query: "q", Hits: []SearchHit{{PageID: 3, URL: "u", Title: "t", Score: 1}}})
	})

	if _, err := openFrame([]byte("not a frame"), wireSearch); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := openFrame(frame[:len(frame)-3], wireSearch); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, err := openFrame(append(append([]byte{}, frame...), 0xff), wireSearch); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := openFrame(frame, wireStats); err == nil {
		t.Error("wrong kind accepted")
	}
	// Kinds 4–7 are retired (collfreq batch, entity list, harvest event,
	// node stat report): no decoder takes a frame that announces one.
	for _, old := range retiredKinds {
		retired := frameOf(old, false, func(e *store.Enc) { e.Str("engine"); e.Varint(12) })
		for _, kind := range []byte{wireStats, wireSearch, wirePage, wireIngest, wireSearchPages} {
			if err := decodeFramePayload(retired, kind, func(d *store.Dec) { d.Str(); d.Varint() }); err == nil {
				t.Errorf("retired kind %d decoded as kind %d", old, kind)
			}
		}
	}
	flipped := append([]byte{}, frame...)
	flipped[len(flipped)-1] ^= 0x01
	if _, err := openFrame(flipped, wireSearch); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("payload corruption not caught by CRC: %v", err)
	}
}

// retiredKinds are the frame kinds no route negotiates any more (wire.go).
var retiredKinds = []byte{4, 5, 6, 7}

// TestRegistrationPayloadsAreJSON: the two once-per-boot payloads — the
// entity list and a node's stat report — answer JSON whatever Accept says,
// and say so in Content-Type, so a client of any release that asks for a
// frame sniffs JSON and decodes it as such; a current client reads both.
func TestRegistrationPayloadsAreJSON(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	node := startClusterNodes(t, g, 2, 1, nil)[0]
	for _, path := range []string{"/api/v1/entities", "/api/v1/cluster/stats"} {
		var bodies [2][]byte
		for i, wire := range []bool{false, true} {
			req, _ := http.NewRequest(http.MethodGet, node+path, nil)
			if wire {
				req.Header.Set("Accept", wireContentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			bodies[i], err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || isWireFrame(bodies[i]) ||
				!strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
				t.Fatalf("GET %s (Accept wire=%v) = %d %q, framed %v: want JSON", path, wire, resp.StatusCode, resp.Header.Get("Content-Type"), isWireFrame(bodies[i]))
			}
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("GET %s answers differently when asked for a frame", path)
		}
	}
	c, err := DialContext(context.Background(), node, g.Tokenizer, ClientOptions{})
	if err != nil || !c.WireNegotiated() {
		t.Fatalf("dial: %v (wire %v)", err, c != nil && c.WireNegotiated())
	}
	ents, err := c.Entities(context.Background())
	if err != nil || len(ents) != g.Corpus.NumEntities() {
		t.Errorf("entities: %d, %v", len(ents), err)
	}
	if st, err := c.ClusterStats(context.Background()); err != nil || st.NumDocs == 0 || len(st.CollFreq) == 0 {
		t.Errorf("cluster stats: %+v, %v", st, err)
	}
}

// TestNegotiationMatrix drives every cell of the codec matrix over real
// HTTP: Accept binary vs JSON against a server, against a JSON-only peer
// and from a JSON-pinned client, with the fixed gzip threshold.
func TestNegotiationMatrix(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainCars))
	if err != nil {
		t.Fatal(err)
	}
	live := bootLive(g.Corpus)

	get := func(t *testing.T, srvURL, path string, wantWire bool) (body []byte, ct string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srvURL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantWire {
			req.Header.Set("Accept", wireContentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b, resp.Header.Get("Content-Type")
	}

	srv := httptest.NewServer(NewServer(g.Corpus, live, nil).Handler())
	defer srv.Close()
	const statsPath = "/api/v1/stats"
	pageID := g.Corpus.Pages[2].ID
	rawPage := html.RenderPage(g.Corpus.Pages[2])
	gzipped := func(frame []byte) bool { return frame[len(wireMagic)+1]&wireFlagGzip != 0 }

	// Both codecs carry the same values, and page bytes are identical
	// through both — the byte-level parity bar.
	t.Run("gzip-default", func(t *testing.T) {
		body, ct := get(t, srv.URL, statsPath, true)
		if ct != wireContentType || !isWireFrame(body) {
			t.Fatalf("%s with Accept: got content-type %q, frame=%v", statsPath, ct, isWireFrame(body))
		}
		var st Stats
		if err := decodeFramePayload(body, wireStats, func(d *store.Dec) { st = decodeStatsWire(d) }); err != nil {
			t.Fatal(err)
		}
		if st.NumPages != g.Corpus.NumPages() {
			t.Errorf("%s wire stats %+v", statsPath, st)
		}
		// JSON default: same values, no frame.
		body, ct = get(t, srv.URL, statsPath, false)
		if isWireFrame(body) || !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s without Accept negotiated binary (ct %q)", statsPath, ct)
		}
		var jst Stats
		if err := json.Unmarshal(body, &jst); err != nil {
			t.Fatal(err)
		}
		if jst != st {
			t.Errorf("%s: JSON stats %+v != wire stats %+v", statsPath, jst, st)
		}

		frame, _ := get(t, srv.URL, html.PageHref(pageID), true)
		payload, err := openFrame(frame, wirePage)
		if err != nil {
			t.Fatal(err)
		}
		plain, _ := get(t, srv.URL, html.PageHref(pageID), false)
		if !bytes.Equal(payload, plain) || !bytes.Equal(payload, []byte(rawPage)) {
			t.Error("page bytes differ across codecs")
		}
	})
	// The one threshold, compressMin: a rendered page is past it and its
	// frame is gzipped...
	t.Run("gzip-on", func(t *testing.T) {
		if len(rawPage) < compressMin {
			t.Fatalf("page is %d bytes, under the %d-byte threshold", len(rawPage), compressMin)
		}
		if frame, _ := get(t, srv.URL, html.PageHref(pageID), true); !isWireFrame(frame) || !gzipped(frame) {
			t.Errorf("page frame (%d-byte page) not a gzipped frame", len(rawPage))
		}
	})
	// ...and a stats frame is under it and is not.
	t.Run("gzip-off", func(t *testing.T) {
		if body, _ := get(t, srv.URL, statsPath, true); !isWireFrame(body) || gzipped(body) {
			t.Errorf("stats frame (%d bytes) not a plain frame under the %d-byte threshold", len(body), compressMin)
		}
	})

	// A weight of zero refuses the wire type (RFC 9110 §12.4.2); any other
	// weight asks for it, whatever else the header lists.
	t.Run("q-values", func(t *testing.T) {
		for _, row := range []struct {
			accept string
			wire   bool
		}{
			{wireContentType + ";q=0", false},
			{wireContentType + "; Q=0.000", false},
			{"application/json, " + wireContentType + ";q=0", false},
			{wireContentType + ";q=0.5", true},
			{"application/json;q=0.9, " + wireContentType + ";q=0.5", true},
			{"APPLICATION/X-L2Q-WIRE", true},
			{"*/*", false},
		} {
			for _, path := range []string{statsPath, html.PageHref(pageID)} {
				req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Accept", row.accept)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s (Accept %q) = %d, %v", path, row.accept, resp.StatusCode, err)
				}
				if framed := isWireFrame(body) && resp.Header.Get("Content-Type") == wireContentType; framed != row.wire {
					t.Errorf("GET %s (Accept %q): framed %v, want %v", path, row.accept, framed, row.wire)
				}
			}
		}
	})

	// A JSON-only peer: Accept is stripped on the way, everything is JSON.
	t.Run("wire-disabled", func(t *testing.T) {
		srv := httptest.NewServer(stripAccept(NewServer(g.Corpus, live, nil).Handler()))
		defer srv.Close()
		body, _ := get(t, srv.URL, "/api/v1/stats", true)
		if isWireFrame(body) {
			t.Error("JSON-only peer framed a response")
		}
		// A binary-preferring client degrades transparently...
		c, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if c.WireNegotiated() {
			t.Error("client claims wire against a JSON-only server")
		}
		// ...but a CodecBinary client refuses to.
		if _, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{Codec: CodecBinary}); err == nil {
			t.Error("CodecBinary dial accepted a JSON-only server")
		}
	})

	// CodecJSON: the client never asks for binary even against a
	// wire-capable server.
	t.Run("codec-json", func(t *testing.T) {
		c, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{Codec: CodecJSON})
		if err != nil {
			t.Fatal(err)
		}
		if c.WireNegotiated() {
			t.Error("CodecJSON client negotiated binary")
		}
		if _, err := c.PageCtx(context.Background(), g.Corpus.Pages[0].ID); err != nil {
			t.Fatal(err)
		}
	})
}

// stripAccept is an intermediary that drops every request's Accept header
// on its way to h: behind it a current server is a JSON-only peer, the
// case the client's frame sniffing exists for.
func stripAccept(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		h.ServeHTTP(w, r)
	})
}

// TestMixedVersionFallback: a JSON-only peer (an intermediary strips
// Accept) and a binary-preferring client negotiate JSON at the dial probe
// and harvest exactly as the in-process engine does; a client that
// requires binary fails the dial instead of degrading.
func TestMixedVersionFallback(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	live := bootLive(g.Corpus)
	srv := httptest.NewServer(stripAccept(NewServer(g.Corpus, live, nil).Handler()))
	defer srv.Close()

	c, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{Codec: CodecAuto})
	if err != nil {
		t.Fatalf("dial against a JSON-only server: %v", err)
	}
	if c.WireNegotiated() {
		t.Error("negotiated wire against a JSON-only server")
	}
	ss := newSessionSetup(t, g)
	localQ, localP, _ := ss.run(t, core.NewL2QBAL(), live)
	remoteQ, remoteP, _ := ss.run(t, core.NewL2QBAL(), c)
	if len(localQ) == 0 || !reflect.DeepEqual(remoteQ, localQ) || !reflect.DeepEqual(remoteP, localP) {
		t.Errorf("harvest over negotiated JSON diverges:\n local  %v %v\n remote %v %v", localQ, localP, remoteQ, remoteP)
	}
	ents, err := c.Entities(context.Background())
	if err != nil || len(ents) != g.Corpus.NumEntities() {
		t.Fatalf("entities over negotiated JSON: %d, %v", len(ents), err)
	}

	if _, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{Codec: CodecBinary}); err == nil {
		t.Error("CodecBinary dial accepted a JSON-only server")
	}

	// A server from before with=pages ignores the parameter and answers
	// the bare hit list: the client downloads every hit's page itself and
	// harvests the same, in either codec.
	for _, codec := range []Codec{CodecAuto, CodecJSON} {
		current := NewServer(g.Corpus, live, nil).Handler()
		old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			q.Del("with")
			q.Del("have")
			r.URL.RawQuery = q.Encode()
			current.ServeHTTP(w, r)
		}))
		defer old.Close()
		c, err := DialContext(context.Background(), old.URL, g.Tokenizer, ClientOptions{Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		oldQ, oldP, _ := ss.run(t, core.NewL2QBAL(), c)
		if !reflect.DeepEqual(oldQ, localQ) || !reflect.DeepEqual(oldP, localP) {
			t.Errorf("%v: harvest against a server that ignores with=pages diverges:\n local  %v %v\n remote %v %v", codec, localQ, localP, oldQ, oldP)
		}
		if m := c.Metrics(); m.PagesAttached != 0 || int(m.PageFetches) != len(oldP) || m.Errors != 0 {
			t.Errorf("%v: metrics %+v, want every one of the %d pages downloaded from /page", codec, m, len(oldP))
		}
	}
}

// TestErrorEnvelope: every handler's failure decodes into the one
// envelope, surfaces as *TransportError with the machine-readable code,
// and the server's retryable hint is honored over blind status-class
// retrying.
func TestErrorEnvelope(t *testing.T) {
	f := newFixture(t)
	for _, tc := range []struct {
		method   string
		path     string
		status   int
		code     string
		whatness string
	}{
		{"GET", "/api/v1/search", http.StatusBadRequest, "bad_request", "missing query"},
		{"GET", "/page/999999.html", http.StatusNotFound, "not_found", "no such page"},
		{"GET", "/api/v1/jobs/nope", http.StatusNotFound, "not_found", "no such job"},
		// The request-scoped harvest route is gone: a harvest is a job.
		{"POST", "/api/v1/harvest", http.StatusNotFound, "not_found", "no route"},
	} {
		req, err := http.NewRequest(tc.method, f.srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		derr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != tc.status || derr != nil {
			t.Fatalf("%s %s = %d (decode %v), want %d envelope", tc.method, tc.path, resp.StatusCode, derr, tc.status)
		}
		if env.Error.Code != tc.code || env.Error.Message == "" || env.Error.Retryable {
			t.Errorf("%s %s envelope %+v, want code %s, non-retryable", tc.method, tc.path, env.Error, tc.code)
		}
	}

	// A deleted route is no route: 404 in the envelope from every server
	// shape, whichever codec the request asked for.
	for _, shape := range startEveryShape(t, f.g, nil) {
		for _, wire := range []bool{false, true} {
			status, b := rawGet(t, shape.url+"/api/v1/collfreq?tokens=research", wire)
			var env errorEnvelope
			if err := json.Unmarshal(b, &env); status != http.StatusNotFound || err != nil || env.Error.Code != "not_found" {
				t.Errorf("%s: GET /api/v1/collfreq (wire=%v) = %d %q (decode %v), want a 404 not_found envelope", shape.name, wire, status, b, err)
			}
		}
	}

	// The client decodes the envelope into TransportError.Code.
	_, err := f.client.PageCtx(context.Background(), 999999)
	var te *TransportError
	if !errorsAs(err, &te) {
		t.Fatalf("error %v, want *TransportError", err)
	}
	if te.Code != "not_found" || te.Status != http.StatusNotFound {
		t.Errorf("TransportError %+v, want code not_found status 404", te)
	}

	// A 500 whose envelope says retryable:false must NOT be retried,
	// even though blind status-class retrying would.
	var hits atomic.Int64
	stubborn := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(errorEnvelope{Error: apiError{
			Code: "internal", Message: "deterministic failure", Retryable: false,
		}})
	}))
	defer stubborn.Close()
	c := derivedClient(f, stubborn.URL, fastRetry)
	_, err = c.Retrieve(context.Background(), nil, []string{"x"}, nil)
	if !errorsAs(err, &te) || te.Code != "internal" {
		t.Fatalf("error %v, want internal TransportError", err)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("non-retryable 500 was retried %d times", n-1)
	}
}

// errorsAs avoids importing errors alongside the test file's many deps.
func errorsAs(err error, target any) bool {
	for err != nil {
		if te, ok := err.(*TransportError); ok {
			*(target.(**TransportError)) = te
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestJobStreamMatchesBatchStream: HarvestBatch is submit + follow, so the
// events it delivers are, entity by entity, the events a job submitted and
// streamed by hand delivers — and both are NDJSON whatever the request
// accepts: an older client that still asks a job stream for wire frames is
// answered NDJSON under its own Content-Type.
func TestJobStreamMatchesBatchStream(t *testing.T) {
	f := newHarvestFixture(t)
	c, srv := f.client, f.srv
	if !c.WireNegotiated() {
		t.Fatal("wire not negotiated")
	}
	req := harvest.Request{Entities: jobTargets(f, 2), Aspect: string(f.aspect), NQueries: 2}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var batchEvs, jobEvs []harvest.Event
	if err := c.HarvestBatch(ctx, req, func(ev harvest.Event) error {
		batchEvs = append(batchEvs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	id, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StreamJob(ctx, id, func(ev harvest.Event) error {
		jobEvs = append(jobEvs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The two entities harvest concurrently, so how their events
	// interleave differs from run to run; each entity's own subsequence
	// (and the done summary) does not.
	viaBatch := streamByEntity(t, batchEvs, len(req.Entities))
	if viaJob := streamByEntity(t, jobEvs, len(req.Entities)); !reflect.DeepEqual(viaJob, viaBatch) {
		t.Errorf("job stream diverges from the batch stream:\n job   %+v\n batch %+v", viaJob, viaBatch)
	}

	// Asked for frames, the finished job's stream is still NDJSON, and says so.
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/api/v1/jobs/"+id+"?stream=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Accept", wireContentType)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var last harvest.Event
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" || isWireFrame(body) ||
		len(lines) != len(jobEvs) || json.Unmarshal(lines[len(lines)-1], &last) != nil || last.Type != "done" {
		t.Errorf("stream asked with Accept: %s: content-type %q, %d lines (want %d NDJSON events ending in done): %.80q",
			wireContentType, ct, len(lines), len(jobEvs), body)
	}
}

// streamByEntity splits a harvest event stream into per-entity
// subsequences (the done summary under key -1) after checking the order
// the server does guarantee: an entity's progress events all precede its
// one closing entity/error event, and done comes last with matching
// counts.
func streamByEntity(t *testing.T, evs []harvest.Event, entities int) map[corpus.EntityID][]harvest.Event {
	t.Helper()
	if len(evs) == 0 || evs[len(evs)-1].Type != "done" {
		t.Fatalf("stream did not finish with done: %+v", evs)
	}
	by := make(map[corpus.EntityID][]harvest.Event)
	closed := make(map[corpus.EntityID]bool)
	failed := 0
	for i, ev := range evs[:len(evs)-1] {
		switch ev.Type {
		case "progress":
		case "entity", "error":
			if ev.Type == "error" {
				failed++
			}
		default:
			t.Fatalf("event %d: unexpected type %q before the end of the stream", i, ev.Type)
		}
		if closed[ev.Entity] {
			t.Fatalf("event %d: %s for entity %d after its closing event", i, ev.Type, ev.Entity)
		}
		closed[ev.Entity] = ev.Type != "progress"
		by[ev.Entity] = append(by[ev.Entity], ev)
	}
	done := evs[len(evs)-1]
	if len(closed) != entities || done.Entities != entities || done.Failed != failed {
		t.Fatalf("done %+v after %d closed entities (%d failed), want %d entities", done, len(closed), failed, entities)
	}
	for id, c := range closed {
		if !c {
			t.Fatalf("entity %d never closed", id)
		}
	}
	by[-1] = []harvest.Event{done}
	return by
}

// TestDifferentialWireParity is the tentpole acceptance bar: a full
// fault-injected remote harvest (35% 500s + 15% truncations — a session is
// one request per fired query now, so the fault process has to be dense
// for both kinds of fault to land on it) over the binary wire fires the
// identical query sequence, gathers the identical page set, and downloads
// byte-identical page content vs the JSON wire.
func TestDifferentialWireParity(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	live := bootLive(g.Corpus)
	rec := types.Chain{g.KB, types.NewRegexRecognizer()}
	aspect := synth.AspResearch
	y := func(p *corpus.Page) bool { return classify.GroundTruth(p, aspect) }
	cfg := core.DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	var domain []corpus.EntityID
	for i := 0; i < g.Corpus.NumEntities()/2; i++ {
		domain = append(domain, g.Corpus.Entities[i].ID)
	}
	dm, err := core.LearnDomain(cfg, aspect, g.Corpus, domain, y, rec)
	if err != nil {
		t.Fatal(err)
	}
	target := g.Corpus.Entities[g.Corpus.NumEntities()-1]

	// One injector per codec, identically seeded: both clients face the
	// same fault process.
	dialFaulty := func(codec Codec) (*Client, *FaultInjector) {
		inj := &FaultInjector{ErrorRate: 0.35, TruncateRate: 0.15, Seed: 202,
			Next: NewServer(g.Corpus, live, nil).Handler()}
		srv := httptest.NewServer(inj)
		t.Cleanup(srv.Close)
		c, err := DialContext(context.Background(), srv.URL, g.Tokenizer, ClientOptions{Retry: fastRetry, Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		return c, inj
	}

	run := func(c *Client) ([]core.Query, []corpus.PageID, map[corpus.PageID]string) {
		sess := core.NewSession(cfg, c, target, aspect, y, dm, rec, 42)
		fired := mustRun(t, sess, core.NewL2QBAL(), 3)
		ids := make([]corpus.PageID, 0, len(sess.Pages()))
		rendered := make(map[corpus.PageID]string, len(sess.Pages()))
		for _, p := range sess.Pages() {
			ids = append(ids, p.ID)
			// Re-render the fetched page: byte equality of the rendered
			// form means the downloaded content was byte-identical.
			rendered[p.ID] = html.RenderPage(p)
		}
		return fired, ids, rendered
	}

	jsonClient, jsonInj := dialFaulty(CodecJSON)
	wireClient, wireInj := dialFaulty(CodecAuto)
	if !wireClient.WireNegotiated() {
		t.Fatal("wire client did not negotiate binary")
	}
	jq, jp, jr := run(jsonClient)
	wq, wp, wr := run(wireClient)

	if !reflect.DeepEqual(jq, wq) {
		t.Errorf("fired queries differ across codecs:\n json %v\n wire %v", jq, wq)
	}
	if !reflect.DeepEqual(jp, wp) {
		t.Errorf("gathered pages differ across codecs:\n json %v\n wire %v", jp, wp)
	}
	if len(jq) == 0 || len(jp) == 0 {
		t.Fatal("session gathered nothing")
	}
	for id, body := range jr {
		if wr[id] != body {
			t.Errorf("page %d content differs across codecs", id)
		}
	}
	// Both runs must actually have been faulted, or parity proved nothing.
	for name, inj := range map[string]*FaultInjector{"json": jsonInj, "wire": wireInj} {
		_, e5, tr := inj.Counts()
		if e5 == 0 || tr == 0 {
			t.Fatalf("%s injector fired %d 500s and %d truncations; want both kinds", name, e5, tr)
		}
		t.Logf("%s injector: %d 500s, %d truncations", name, e5, tr)
	}
	if m := wireClient.Metrics(); m.Retries == 0 || m.Errors != 0 {
		t.Errorf("wire client metrics %+v: want retries absorbed, zero terminal errors", m)
	}
}

// decodeFrame opens a frame of kind and decodes its payload with dec.
func decodeFrame[T any](kind byte, dec func(*store.Dec) T) func(body []byte) (T, error) {
	return func(body []byte) (v T, err error) {
		err = decodeFramePayload(body, kind, func(d *store.Dec) { v = dec(d) })
		return v, err
	}
}

// openPage opens a /page frame: its payload is the document, raw.
func openPage(body []byte) ([]byte, error) { return openFrame(body, wirePage) }

// frameDecoder is one live frame kind as a client reads it: canon decodes a
// body of the kind and returns the canonical payload of what it decoded,
// with the number of elements a Dec.Count admitted.
type frameDecoder struct {
	kind  byte
	canon func(body []byte) (payload []byte, n int, err error)
}

// payloadDecoder is the frameDecoder of a kind that decodes with open and
// re-encodes with enc.
func payloadDecoder[T any](kind byte, open func([]byte) (T, error), enc func(*store.Enc, T), count func(T) int) frameDecoder {
	return frameDecoder{kind, func(body []byte) ([]byte, int, error) {
		v, err := open(body)
		if err != nil {
			return nil, 0, err
		}
		var e store.Enc
		enc(&e, v)
		return e.Data(), count(v), nil
	}}
}

func encodeRaw(e *store.Enc, b []byte) { e.Raw(b) }

// liveDecoders are the frame kinds no other fuzz target covers: stats,
// search, page, the ingest ack and a node's batch of pages.
var liveDecoders = []frameDecoder{
	payloadDecoder(wireStats, decodeFrame(wireStats, decodeStatsWire), encodeStatsWire, func(Stats) int { return 0 }),
	payloadDecoder(wireSearch, decodeFrame(wireSearch, decodeSearchWire), encodeSearchWire, func(r SearchResponse) int { return len(r.Hits) }),
	payloadDecoder(wirePage, openPage, encodeRaw, func([]byte) int { return 0 }),
	payloadDecoder(wireIngest, decodeFrame(wireIngest, decodeIngestAckWire), encodeIngestAckWire, func(IngestResponse) int { return 0 }),
	payloadDecoder(wirePages, decodeFrame(wirePages, decodePagesWire), encodePagesWire, func(p []PageBody) int { return len(p) }),
}

// roundTripFixture holds a fixture to a DeepEqual round trip through a
// frame, gzip off and on, and seeds f with both frames and the first
// half of each — what FaultInjector.truncate leaves of a response.
func roundTripFixture[T any](f *testing.F, kind byte, v T, enc func(*store.Enc, T), open func([]byte) (T, error)) {
	for _, zip := range []bool{false, true} {
		frame := frameOf(kind, zip, func(e *store.Enc) { enc(e, v) })
		if got, err := open(frame); err != nil || !reflect.DeepEqual(got, v) {
			f.Fatalf("kind %d fixture (gzip %v): got %+v, %v; want %+v", kind, zip, got, err, v)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
}

// FuzzFrameDecoders throws bytes at the live frame decoders that
// FuzzSearchPagesFrame and FuzzIngestBody leave out — stats, search, page,
// the ingest ack and a node's batch of pages — both as a whole response
// body and, so the CRC does not stop every mutation at the door, as the
// payload of a well-formed frame of each kind, gzipped and not.
// Properties: no decoder panics; a search never holds more hits, nor a
// batch more pages, than its payload has bytes (Dec.Count's guard); a frame announcing a retired kind (4–7) is refused by every
// decoder; what decodes re-encodes to a canonical payload that a frame
// carries back unchanged, gzip off and on; and a frame out of a server's
// frame memo, built or found there, opens to the payload it was built from.
func FuzzFrameDecoders(f *testing.F) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		f.Fatal(err)
	}
	roundTripFixture(f, wireStats, Stats{Domain: "researchers", NumEntities: 30, NumPages: 300, NumTerms: 4321,
		TotalTokens: 98765, Mu: 1234.5, TopK: 5}, encodeStatsWire, decodeFrame(wireStats, decodeStatsWire))
	for _, resp := range searchPagesSeeds(g) {
		for i := range resp.Hits {
			resp.Hits[i].HTML = "" // a plain search frame carries no bodies
		}
		roundTripFixture(f, wireSearch, resp, encodeSearchWire, decodeFrame(wireSearch, decodeSearchWire))
	}
	page := []byte(html.RenderPage(g.Corpus.Pages[0]))
	roundTripFixture(f, wirePage, page, encodeRaw, openPage)
	roundTripFixture(f, wireIngest, IngestResponse{Ingested: 3, Duplicates: 1, NumDocs: 303, Epoch: 7, Segments: 2},
		encodeIngestAckWire, decodeFrame(wireIngest, decodeIngestAckWire))
	batch := []PageBody{{PageID: g.Corpus.Pages[0].ID, HTML: string(page)}, {PageID: g.Corpus.Pages[7].ID, HTML: html.RenderPage(g.Corpus.Pages[7])}}
	roundTripFixture(f, wirePages, batch, encodePagesWire, decodeFrame(wirePages, decodePagesWire))
	f.Add(page)
	f.Add(frameOf(wireSearchPages, false, func(e *store.Enc) { encodeSearchPagesWire(e, searchPagesSeeds(g)[2]) }))

	memo := newFrameMemo()
	f.Fuzz(func(t *testing.T, data []byte) {
		var retired [][]byte
		for _, old := range retiredKinds {
			retired = append(retired, wrapFrame(old, data, false))
		}
		for _, dec := range liveDecoders {
			for range 2 { // built, then (from compressMin up) found
				if payload, err := openFrame(memo.wrap(dec.kind, data), dec.kind); err != nil || !bytes.Equal(payload, data) {
					t.Fatalf("kind %d: a memoized frame opens to %d bytes (%v), not the %d it was built from", dec.kind, len(payload), err, len(data))
				}
			}
			for _, body := range [][]byte{data, wrapFrame(dec.kind, data, false), wrapFrame(dec.kind, data, true)} {
				canon, n, err := dec.canon(body)
				if err != nil {
					continue
				}
				if payload, err := openFrame(body, dec.kind); err != nil || n > len(payload) {
					t.Fatalf("kind %d: %d elements decoded from a %d-byte payload (%v)", dec.kind, n, len(payload), err)
				}
				for _, zip := range []bool{false, true} {
					again, _, err := dec.canon(wrapFrame(dec.kind, canon, zip))
					if err != nil || !bytes.Equal(again, canon) {
						t.Fatalf("kind %d (gzip %v): the canonical payload does not round-trip: %v", dec.kind, zip, err)
					}
				}
			}
			for i, frame := range retired {
				if _, _, err := dec.canon(frame); err == nil {
					t.Fatalf("retired kind %d decoded as kind %d", retiredKinds[i], dec.kind)
				}
			}
		}
	})
}

var _ = fmt.Sprintf // keep fmt for debugging edits

// BenchmarkMarshalFrameAllocs pins what a server's framing of a
// compressed response allocates — one page, and a search carrying the
// pages of its five hits — through the server's frame memo. Repeating one
// payload, every frame after the first is a memo hit: the stored frame,
// nothing allocated (encoder and key are pooled or on the stack). Under
// distinct/ every iteration frames a payload the memo has not seen, so
// each one deflates and inserts: the frame itself and its key string (the
// cache's slots are allocated once). Gated by scripts/alloc_gate.sh — renaming this benchmark
// or a sub-benchmark breaks the gate; update the script in the same
// change.
func BenchmarkMarshalFrameAllocs(b *testing.B) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		b.Fatal(err)
	}
	body := []byte(html.RenderPage(g.Corpus.Pages[0]))
	if len(body) < compressMin {
		b.Fatalf("page body is %d bytes, under the compress threshold", len(body))
	}
	resp := searchPagesSeeds(g)[2] // five hits, five bodies
	for _, bc := range []struct {
		name   string
		kind   byte
		encode func(*store.Enc)
	}{
		{"page", wirePage, func(e *store.Enc) { e.Raw(body) }},
		{"search5pages", wireSearchPages, func(e *store.Enc) { encodeSearchPagesWire(e, resp) }},
	} {
		var n uint64
		distinct := func(e *store.Enc) { n++; e.Uvarint(n); bc.encode(e) }
		for _, run := range []struct {
			name   string
			encode func(*store.Enc)
		}{{bc.name, bc.encode}, {"distinct/" + bc.name, distinct}} {
			b.Run(run.name, func(b *testing.B) {
				s := &Server{frames: newFrameMemo()}
				frame := s.frame(bc.kind, run.encode) // warm the pools
				if frame[len(wireMagic)+1]&wireFlagGzip == 0 {
					b.Fatal("frame was not compressed")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					frame = s.frame(bc.kind, run.encode)
				}
				b.ReportMetric(float64(len(frame)), "frame_bytes")
			})
		}
	}
}

// BenchmarkFrameDeflateLevel reproduces the table frameGzipLevel was chosen
// from (DESIGN.md "Binary wire frames"): for each deflate level, what
// compressing a five-page search payload costs with a reused writer, how
// many bytes leave, and what inflating them costs the client. It adds
// nothing to the program; the program has one level.
func BenchmarkFrameDeflateLevel(b *testing.B) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		b.Fatal(err)
	}
	var enc store.Enc
	encodeSearchPagesWire(&enc, searchPagesSeeds(g)[2])
	payload := enc.Data()
	for _, lv := range []struct {
		name  string
		level int
	}{{"6", 6}, {"4", 4}, {"3", 3}, {"2", 2}, {"1", gzip.BestSpeed}, {"huffman", gzip.HuffmanOnly}} {
		zw, err := gzip.NewWriterLevel(io.Discard, lv.level)
		if err != nil {
			b.Fatal(err)
		}
		var z bytes.Buffer
		deflate := func() {
			z.Reset()
			zw.Reset(&z)
			zw.Write(payload) //nolint:errcheck // bytes.Buffer cannot fail
			zw.Close()        //nolint:errcheck
		}
		b.Run("level"+lv.name+"/deflate", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				deflate()
			}
			b.ReportMetric(float64(len(payload)), "raw_bytes")
			b.ReportMetric(float64(z.Len()), "gzip_bytes")
		})
		b.Run("level"+lv.name+"/inflate", func(b *testing.B) {
			deflate()
			frame := gzipFrame(wireSearchPages, z.Bytes())
			for i := 0; i < b.N; i++ {
				if _, err := openFrame(frame, wireSearchPages); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
