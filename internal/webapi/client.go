package webapi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"l2q/internal/corpus"
	"l2q/internal/html"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/textproc"
)

// Client is a remote search engine: it implements core.Retriever against
// a webapi.Server — one l2qserve, or a cluster's coordinator, which makes
// it the one retriever through a cluster — so a harvesting session runs
// unchanged across a real HTTP boundary. A search asks for its hits'
// pages in the same response (with=pages), so a harvest step is one round
// trip; the pages arrive as HTML, are segmented with internal/html,
// re-tokenized, and cached. The client scores nothing: ranks and scores
// are the server's.
//
// The transport is resilient by default: every request but a job's submit
// and cancel, which go out once, is idempotent — GETs, ingest batches and
// stats pushes — and retried on transient faults (connection errors,
// timeouts, truncated bodies, 5xx, a coordinator's flagged partial ranking)
// with exponential backoff and jitter (RetryPolicy). The client downloads
// on its own (/page/{id}, one at a time) only the pages a response did not
// carry, and accounts every request, retry and terminal failure in
// ClientMetrics. Faults that survive the retry budget
// surface as *TransportError — never as a silently shortened result list,
// which would corrupt the session's R_E(Φ) bookkeeping without a trace.
//
// Client is safe for concurrent use.
type Client struct {
	base  string
	http  *http.Client
	tok   *textproc.Tokenizer
	stats Stats
	retry RetryPolicy
	codec Codec
	// wire records whether the server answered the dial probe in the
	// binary codec — the negotiated truth, fixed at dial time.
	wire bool
	// memo is the process-wide decode memo (decodeMemo; nil: every
	// response is decoded afresh) and scope this client's part of its key.
	memo  *sizedCache[decodedSearch]
	scope string

	mu        sync.RWMutex
	pageCache map[corpus.PageID]*corpus.Page
	// recent is a ring of the last maxHave page IDs cached (recentN counts
	// every insertion): what a search tells the server it need not send.
	recent  [maxHave]corpus.PageID
	recentN int

	met metrics
}

// ErrPartial is what Client.Retrieve's retry loop fails with on a search a
// coordinator answered flagged Partial — some partition had no live owner —
// and, once the retries are spent, what the *TransportError wraps:
// core.Retriever promises the complete ranked list or an error, never a
// silently shortened one. The coordinator never caches a partial, so a
// retry scatters afresh. The HTTP surface itself still serves the flagged
// partial (SearchResponse.Partial) to whoever asks for it.
var ErrPartial = errors.New("cluster: partial result — one or more partitions had no live owner")

// Codec is the client's wire-encoding preference, negotiated at dial.
type Codec int

const (
	// CodecAuto (the default) asks for the binary wire protocol and
	// accepts whatever the server speaks: binary frames, or JSON from a
	// server that has the wire codec switched off.
	CodecAuto Codec = iota
	// CodecJSON never asks for binary; every payload travels as JSON
	// (the debug posture).
	CodecJSON
	// CodecBinary requires binary: the dial fails against a server that
	// does not speak the wire protocol instead of silently degrading.
	CodecBinary
)

func (c Codec) String() string {
	switch c {
	case CodecJSON:
		return "json"
	case CodecBinary:
		return "binary"
	default:
		return "auto"
	}
}

// ParseCodec maps a flag value ("auto", "json", "binary") to a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "auto":
		return CodecAuto, nil
	case "json":
		return CodecJSON, nil
	case "binary":
		return CodecBinary, nil
	}
	return CodecAuto, fmt.Errorf("webapi: unknown codec %q (want auto, json or binary)", s)
}

// ClientOptions is the one construction surface for Client transports.
// The zero value picks the defaults documented on each field; DialContext
// applies them via withDefaults.
type ClientOptions struct {
	// Retry is the per-request retry policy (zero value: 4 attempts,
	// 50 ms base backoff, 2 s cap).
	Retry RetryPolicy
	// PrefetchWorkers has no effect: a coordinator sends one request per
	// owner node for a hit list's missing bodies. It stays for source
	// compatibility until ROADMAP items 2(f) and 8(c) remove it.
	PrefetchWorkers int
	// Timeout is the per-request HTTP timeout (default 30 s). The
	// caller's context cancels earlier.
	Timeout time.Duration
	// Codec is the wire-encoding preference (default CodecAuto).
	Codec Codec
}

// withDefaults fills the zero fields with the documented defaults.
func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// maxResponseBytes caps any single response body read (pages and JSON).
const maxResponseBytes = 32 << 20

// apiRoot is the versioned surface every API call is made on.
const apiRoot = "/api/v1"

// DialContext connects to a server, fetching its collection statistics
// once; ctx bounds that dial probe (the stats fetch and codec
// negotiation). The tokenizer must match the one that produced the corpus
// (the server serves raw HTML; tokenization is the client's job, as on
// the real Web).
func DialContext(ctx context.Context, base string, tok *textproc.Tokenizer, opts ClientOptions) (*Client, error) {
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	opts = opts.withDefaults()
	c := &Client{
		base:      strings.TrimRight(base, "/"),
		http:      &http.Client{Timeout: opts.Timeout},
		tok:       tok,
		retry:     opts.Retry,
		codec:     opts.Codec,
		pageCache: make(map[corpus.PageID]*corpus.Page),
		memo:      decodeMemo,
	}
	c.scope = memoScope(c.base, tok)
	// The dial probe doubles as codec negotiation: ask for binary (per
	// the codec preference) and record what came back.
	if err := c.fetchStats(ctx); err != nil {
		return nil, fmt.Errorf("webapi: dial %s: %w", base, err)
	}
	if c.stats.TopK <= 0 || c.stats.Mu <= 0 {
		return nil, fmt.Errorf("webapi: dial %s: implausible stats %+v", base, c.stats)
	}
	if c.codec == CodecBinary && !c.wire {
		return nil, fmt.Errorf("webapi: dial %s: server does not speak the binary wire protocol (CodecBinary requires it)", base)
	}
	return c, nil
}

// wantWire reports whether requests should ask for the binary codec.
func (c *Client) wantWire() bool { return c.codec != CodecJSON }

// WireNegotiated reports whether the dial probe negotiated the binary
// wire protocol (false: every payload travels as JSON).
func (c *Client) WireNegotiated() bool { return c.wire }

// fetchStats performs the dial probe: fetch collection statistics in the
// negotiated codec and record whether the server answered in binary.
func (c *Client) fetchStats(ctx context.Context) error {
	return c.get(ctx, "stats", apiRoot+"/stats", func(b []byte) error {
		if isWireFrame(b) {
			c.wire = true
			return decodeFramePayload(b, wireStats, func(d *store.Dec) { c.stats = decodeStatsWire(d) })
		}
		c.wire = false
		return json.Unmarshal(b, &c.stats)
	})
}

// Stats returns the server's collection statistics.
func (c *Client) Stats() Stats { return c.stats }

// Metrics returns a snapshot of the client's request/retry/error counters,
// the size of its page cache and the process-wide decode memo's.
func (c *Client) Metrics() ClientMetrics {
	m := c.met.snapshot()
	c.mu.RLock()
	m.CachedPages = len(c.pageCache)
	c.mu.RUnlock()
	if c.memo != nil {
		m.DecodeMemo = c.memo.metrics()
	}
	return m
}

// doRetry runs attempt until its body passes decode or maxAttempts tries
// are spent (the retry policy's; 1 for a request that must not be re-sent),
// classifying failures with retryable — the one loop under every request
// the client makes, and where a failed one becomes a *TransportError.
// decode (nil: the body is not looked at) runs inside the loop so truncated
// or corrupted payloads (which read fine but do not parse) are retried like
// wire-level faults.
func (c *Client) doRetry(ctx context.Context, op, path string, maxAttempts int, attempt func() ([]byte, error), decode func([]byte) error) error {
	if err := ctx.Err(); err != nil {
		// Already canceled: no attempt, no counters — this is the
		// caller's decision, not a transport failure.
		return &TransportError{Op: op, Path: path, Err: err}
	}
	var lastErr error
	attempts := 0
	for attempts < maxAttempts {
		attempts++
		if attempts > 1 {
			c.met.retries.Add(1)
		}
		body, err := attempt()
		if err == nil && decode != nil {
			err = decode(body)
		}
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(ctx, err) || attempts == maxAttempts {
			break
		}
		if err := c.retry.sleep(ctx, attempts); err != nil {
			lastErr = err
			break
		}
	}
	if ctx.Err() == nil {
		// Count terminal transport failures only; an operation cut short
		// by the caller's cancellation is not a fault of the wire.
		c.met.errors.Add(1)
	}
	te := &TransportError{Op: op, Path: path, Attempts: attempts, Err: lastErr}
	var se *statusError
	if errors.As(lastErr, &se) {
		te.Status, te.Code = se.status, se.code
	}
	return te
}

// request is one API call: method ("" is GET, as in net/http), path, body
// and its content type; wire asks for the binary codec (callers sniff the
// body for the frame magic), and once sends it at most once, whatever the
// retry policy.
type request struct {
	method, path, contentType string
	body                      []byte
	wire, once                bool
}

// send issues r through hc — the one place a request is built and counted,
// its body through a fresh reader, since a retry must never replay a
// half-consumed one — and returns the response of a 200 or 202 for the
// caller to read and close; any other status is a *statusError.
func (c *Client) send(ctx context.Context, hc *http.Client, r request) (*http.Response, error) {
	c.met.requests.Add(1)
	req, err := http.NewRequestWithContext(ctx, r.method, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	if r.contentType != "" {
		req.Header.Set("Content-Type", r.contentType)
	}
	if r.wire {
		req.Header.Set("Accept", wireContentType)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		defer resp.Body.Close()
		return nil, readError(resp)
	}
	return resp, nil
}

// do sends r through c.http under the retry loop and hands the response
// body to decode. A read error is a truncated body (the server died
// mid-response); a body past maxResponseBytes is rejected here, not cut for
// a decoder to trip on.
func (c *Client) do(ctx context.Context, op string, r request, decode func([]byte) error) error {
	attempts := c.retry.MaxAttempts
	if r.once {
		attempts = 1
	}
	return c.doRetry(ctx, op, r.path, attempts, func() ([]byte, error) {
		resp, err := c.send(ctx, c.http, r)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return readBounded(resp.Body, resp.ContentLength, maxResponseBytes)
	}, decode)
}

// get issues GET path, asking for the binary codec per the client's
// preference.
func (c *Client) get(ctx context.Context, op, path string, decode func([]byte) error) error {
	return c.do(ctx, op, request{path: path, wire: c.wantWire()}, decode)
}

// getJSON issues GET path on a JSON-only route. It never asks for the
// binary codec, so a server of any release answers JSON — one that still
// frames the route (kinds 5 and 7 before they retired) frames only what a
// request asks to have framed.
func (c *Client) getJSON(ctx context.Context, op, path string, out any) error {
	return c.do(ctx, op, request{path: path}, func(b []byte) error { return json.Unmarshal(b, out) })
}

// TopK implements core.Retriever.
func (c *Client) TopK() int { return c.stats.TopK }

// search issues one seeded search on path and decodes the hit list. seed
// and query travel token-exact — each token its own repeated parameter
// value — so phrase tokens ("data mining" is one vocabulary term) reach
// the server intact; vals carries the route's other parameters, and a
// non-empty have goes on as the have list with its commas literal —
// digits and commas need no escaping in a query, and Encode would turn
// every comma into %2C. Page bodies the response carries are checked and
// cached inside the retry loop (decodeSearch, adopt): one that fails the
// check fails the decode, and the search is re-issued like any other
// corrupted response. complete does the same to a response flagged Partial
// (ErrPartial).
func (c *Client) search(ctx context.Context, op, path string, vals url.Values, have string, seed, query []textproc.Token, complete bool) (SearchResponse, error) {
	if len(seed) > 0 {
		vals["seed"] = seed
	}
	if len(query) > 0 {
		vals["q"] = query
	}
	rawQuery := vals.Encode()
	if have != "" {
		rawQuery += "&have=" + have
	}
	var resp SearchResponse
	err := c.get(ctx, op, apiRoot+path+"?"+rawQuery, func(b []byte) error {
		d, err := c.decodeSearch(b)
		if err != nil {
			return err
		}
		if complete && d.resp.Partial {
			return ErrPartial
		}
		resp = d.resp
		c.adopt(d.pages)
		return nil
	})
	return resp, err
}

// decodeSearchResponse decodes a search response by sniffing its body,
// never trusting headers — which is what makes mixed-version fallback
// automatic: a frame with the hits' pages attached, a plain search frame
// (a server that ignored with=pages), or JSON (a server or intermediary
// that ignored Accept), whose hits carry their pages in the html field. A
// truncated frame fails its CRC or length check inside the retry loop.
func decodeSearchResponse(b []byte) (resp SearchResponse, err error) {
	switch frameKind(b) {
	case 0:
		err = json.Unmarshal(b, &resp)
	case wireSearchPages:
		err = decodeFramePayload(b, wireSearchPages, func(d *store.Dec) { resp = decodeSearchPagesWire(d) })
	default:
		err = decodeFramePayload(b, wireSearch, func(d *store.Dec) { resp = decodeSearchWire(d) })
	}
	return resp, err
}

// decodedSearch is a search response as a client decodes it: the hit list
// without bodies, and the parsed page of every body the response carried,
// in rank order, each one ID-checked (parsePage) — a function of the
// response bytes, the client's base URL (parsePage writes it into
// Page.URL) and its tokenizer, and of nothing else.
type decodedSearch struct {
	resp  SearchResponse
	pages []*corpus.Page
	tok   *textproc.Tokenizer
	// size is the length of the bodies the pages were parsed from, which
	// they hold substrings of: what an entry of the decode memo keeps.
	size int
}

// decodeMemo is the process-wide memo of decoded search-with-pages frames:
// a search a client of the same scope received byte for byte before is not
// inflated, parsed or tokenized again (DESIGN.md "Decode once per distinct
// frame"). Keyed by kind ‖ SHA-256(frame) ‖ scope (Client.memoKey); only
// frames of at most maxMemoFrame bytes that decoded, passed every check and
// carried a page go in (one without leaves nothing to save but the hash),
// at most search.DefaultCacheSize of them.
var decodeMemo = newDecodeMemo()

func newDecodeMemo() *sizedCache[decodedSearch] {
	return newSizedCache(search.DefaultCacheSize, func(d decodedSearch) int { return d.size })
}

// decodeSearch decodes a search response (decodeSearchFresh) — through the
// client's decode memo when it is a search-with-pages frame. Entries are
// shared, so what comes out of the memo carries a copy of the hit list;
// the pages are the entry's own, immutable once parsed.
func (c *Client) decodeSearch(b []byte) (decodedSearch, error) {
	if c.memo == nil || frameKind(b) != wireSearchPages || len(b) > maxMemoFrame {
		return c.decodeSearchFresh(b)
	}
	var buf [1 + sha256.Size + 64]byte
	key := c.memoKey(buf[:0], b)
	d, ok := c.memo.get(key)
	if ok {
		c.met.decodedFromMemo.Add(1)
	} else {
		var err error
		if d, err = c.decodeSearchFresh(b); err != nil {
			return decodedSearch{}, err
		}
		if len(d.pages) > 0 {
			c.memo.put(key, d)
		}
	}
	d.resp.Hits = slices.Clone(d.resp.Hits)
	return d, nil
}

// memoKey appends the decode-memo key of frame to dst: kind ‖
// SHA-256(frame) ‖ the client's scope.
func (c *Client) memoKey(dst, frame []byte) []byte {
	sum := sha256.Sum256(frame)
	dst = append(dst, wireSearchPages)
	dst = append(dst, sum[:]...)
	return append(dst, c.scope...)
}

// memoScope is what a client's decodes depend on besides the frame: its
// base URL and its tokenizer, named by address. Every entry holds the
// tokenizer it was decoded with (decodedSearch.tok), so while an entry
// lives no other tokenizer can have that address.
func memoScope(base string, tok *textproc.Tokenizer) string {
	return fmt.Sprintf("%s %p", base, tok)
}

// decodeSearchFresh decodes a search response (decodeSearchResponse) and
// takes the page bodies off its hits, each through the check a /page
// download goes through (parsePage): a body that fails it fails the
// response.
func (c *Client) decodeSearchFresh(b []byte) (decodedSearch, error) {
	resp, err := decodeSearchResponse(b)
	if err != nil {
		return decodedSearch{}, err
	}
	d := decodedSearch{resp: resp, tok: c.tok}
	for i := range resp.Hits {
		h := &resp.Hits[i]
		if h.HTML == "" {
			continue
		}
		if d.pages == nil {
			d.pages = make([]*corpus.Page, 0, len(resp.Hits)-i)
		}
		p, err := c.parsePage(h.PageID, h.HTML)
		if err != nil {
			return decodedSearch{}, err
		}
		d.pages = append(d.pages, p)
		d.size += len(h.HTML)
		h.HTML = ""
	}
	return d, nil
}

// adopt caches the pages a search response carried: each one the client
// does not hold yet is cached and counted as attached; one it already
// holds — it fell off the capped have list — is dropped.
func (c *Client) adopt(pages []*corpus.Page) {
	for _, p := range pages {
		if c.cachedPage(p.ID) == nil {
			c.cachePage(p)
			c.met.pagesAttached.Add(1)
		}
	}
}

// Retrieve implements core.Retriever in one round trip: the search asks
// for its hits' pages (with=pages), naming the pages already cached
// (have), and the ranked list is then resolved from the page cache. A
// response flagged Partial is refused (ErrPartial) and re-issued like a
// corrupted one. A hit whose page did not come along and is not cached —
// the server is an older one that ignores with — is downloaded through
// PageCtx, one after another. Either the complete ranked result list is
// appended to dst, or an error is returned — never a partial list.
func (c *Client) Retrieve(ctx context.Context, dst []search.Result, seed, query []textproc.Token) ([]search.Result, error) {
	vals := url.Values{"with": {"pages"}}
	resp, err := c.search(ctx, "search", "/search", vals, c.haveList(), seed, query, true)
	if err != nil {
		return nil, err
	}
	for _, h := range resp.Hits {
		p, err := c.PageCtx(ctx, h.PageID)
		if err != nil {
			return nil, err
		}
		dst = append(dst, search.Result{Page: p, Score: h.Score})
	}
	return dst, nil
}

// SearchWithSeedErr is Retrieve into a fresh result slice, kept for
// bench/sut.go; everything else calls Retrieve.
func (c *Client) SearchWithSeedErr(ctx context.Context, seed, query []textproc.Token) ([]search.Result, error) {
	return c.Retrieve(ctx, nil, seed, query)
}

// PageCtx returns the cached page with the given ID, or downloads it from
// /page/{id}, parses and caches it (Retrieve's hits normally arrive with
// their search response and are cached by then). A page frame carries the
// bytes the JSON (debug) path serves raw; a body parsePage rejects is
// downloaded again.
func (c *Client) PageCtx(ctx context.Context, id corpus.PageID) (*corpus.Page, error) {
	if p := c.cachedPage(id); p != nil {
		return p, nil
	}
	c.met.pageFetches.Add(1)
	var p *corpus.Page
	err := c.get(ctx, "page", html.PageHref(id), func(b []byte) (err error) {
		if isWireFrame(b) {
			if b, err = openFrame(b, wirePage); err != nil {
				return err
			}
		}
		p, err = c.parsePage(id, string(b))
		return err
	})
	if err != nil {
		return nil, err
	}
	return c.cachePage(p), nil
}

// cachedPage returns the cached page with the given ID, nil when the
// client does not hold it.
func (c *Client) cachedPage(id corpus.PageID) *corpus.Page {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.pageCache[id]
}

// cachePage caches p and returns the page cached under its ID: p, or the
// copy that got there first (a download racing a search response that
// carried the same page), so a client hands out one *corpus.Page per ID.
func (c *Client) cachePage(p *corpus.Page) *corpus.Page {
	c.mu.Lock()
	defer c.mu.Unlock()
	if held, ok := c.pageCache[p.ID]; ok {
		return held
	}
	c.pageCache[p.ID] = p
	c.recent[c.recentN%maxHave] = p.ID
	c.recentN++
	return p
}

// haveList renders the have parameter: the IDs of the cached pages,
// newest first, at most maxHave of them.
func (c *Client) haveList() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var buf []byte
	for i := c.recentN - 1; i >= 0 && i >= c.recentN-maxHave; i-- {
		if len(buf) > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(c.recent[i%maxHave]), 10)
	}
	return string(buf)
}

// parsePage parses a document the server announced as page id — a /page
// download or a body attached to a search response. A document whose
// l2q-page-id meta is missing or disagrees with the announced ID is
// rejected (the caller's retry loop re-issues the request — the usual
// cause is a truncated transfer): accepting it would let distinct
// malformed pages alias page 0 in the session's dedup set.
func (c *Client) parsePage(id corpus.PageID, doc string) (*corpus.Page, error) {
	p := html.ParsePage(doc, -1, c.tok)
	if err := checkPageID(p.ID, id); err != nil {
		return nil, err
	}
	p.URL = c.base + html.PageHref(id)
	return p, nil
}

// checkPageID is the one check between a page body and whoever keeps it:
// the ID the document announces must be the ID it was asked for as.
func checkPageID(got, want corpus.PageID) error {
	if got != want {
		return fmt.Errorf("document has l2q-page-id %d, want %d (missing or corrupted meta)", got, want)
	}
	return nil
}

// PagesHTML downloads the bodies of ids from a node in one request
// (/api/v1/cluster/pages), in the order asked, each announced under the ID
// asked for, non-empty and announcing that ID itself (checkPageID), but
// neither tokenized nor cached: what a coordinator asks of a node. A
// response that fails a check is retried whole and never returned.
func (c *Client) PagesHTML(ctx context.Context, ids []corpus.PageID) ([]PageBody, error) {
	var list []byte
	for _, id := range ids {
		list = append(strconv.AppendInt(list, int64(id), 10), ',')
	}
	c.met.pageFetches.Add(int64(len(ids)))
	var bodies []PageBody
	err := c.get(ctx, "pages", apiRoot+"/cluster/pages?ids="+strings.TrimSuffix(string(list), ","), func(b []byte) error {
		var pages []PageBody
		var err error
		if isWireFrame(b) {
			err = decodeFramePayload(b, wirePages, func(d *store.Dec) { pages = decodePagesWire(d) })
		} else {
			err = json.Unmarshal(b, &pages)
		}
		if err != nil {
			return err
		}
		if len(pages) != len(ids) {
			return fmt.Errorf("asked for %d pages, got %d", len(ids), len(pages))
		}
		for i, p := range pages {
			if p.PageID != ids[i] || p.HTML == "" {
				return fmt.Errorf("asked for page %d, got page %d with %d bytes", ids[i], p.PageID, len(p.HTML))
			}
			if err := checkPageID(html.Parse(p.HTML).PageID(), ids[i]); err != nil {
				return err
			}
		}
		bodies = pages
		return nil
	})
	return bodies, err
}

// ClusterStats fetches a node's registration report: the collection
// statistics of its primary partition plus its view of the cluster
// geometry, which the coordinator cross-checks against its own.
func (c *Client) ClusterStats(ctx context.Context) (NodeStatsPayload, error) {
	var st NodeStatsPayload
	err := c.getJSON(ctx, "cluster-stats", apiRoot+"/cluster/stats", &st)
	return st, err
}

// PushClusterStats delivers the coordinator's aggregated global model to
// a node. The push is idempotent (re-applying the same model is a no-op),
// so transient faults retry like any GET.
func (c *Client) PushClusterStats(ctx context.Context, g GlobalStatsPayload) error {
	body, err := json.Marshal(g)
	if err != nil {
		return err
	}
	push := request{method: http.MethodPost, path: apiRoot + "/cluster/stats", body: body, contentType: "application/json"}
	return c.do(ctx, "cluster-stats-push", push, func(b []byte) error {
		var resp struct {
			OK bool `json:"ok"`
		}
		if err := json.Unmarshal(b, &resp); err != nil {
			return err
		}
		if !resp.OK {
			return fmt.Errorf("node did not acknowledge stats push")
		}
		return nil
	})
}

// ClusterSearch runs a partition-local seeded search on a node — the
// coordinator's scatter target. Unlike Retrieve it returns hit metadata
// only (no page downloads): the coordinator merges first and fetches only
// the global top-k.
func (c *Client) ClusterSearch(ctx context.Context, part int, seed, query []textproc.Token, k int) (SearchResponse, error) {
	vals := url.Values{"part": {strconv.Itoa(part)}}
	if k > 0 {
		vals.Set("k", strconv.Itoa(k))
	}
	return c.search(ctx, "cluster-search", "/cluster/search", vals, "", seed, query, false)
}

// Ingest posts a batch of pages to a live server's write path. Safe to
// retry: the server skips pages it already holds (reported back in
// Duplicates), so a duplicate delivery after a lost ack never
// double-counts collection statistics. The batch travels as one
// wireIngest frame when the dial probe negotiated the binary codec, as
// JSON otherwise; the ack is sniffed per the mixed-version rule.
func (c *Client) Ingest(ctx context.Context, req IngestRequest) (IngestResponse, error) {
	post := request{method: http.MethodPost, path: apiRoot + "/ingest", contentType: "application/json", wire: c.wantWire() && c.wire}
	if post.wire {
		post.body = marshalFrame(wireIngest, func(e *store.Enc) { encodeIngestWire(e, req) })
		post.contentType = wireContentType
	} else {
		var err error
		if post.body, err = json.Marshal(req); err != nil {
			return IngestResponse{}, err
		}
	}
	var out IngestResponse
	err := c.do(ctx, "ingest", post, func(b []byte) error {
		if isWireFrame(b) {
			return decodeFramePayload(b, wireIngest, func(d *store.Dec) { out = decodeIngestAckWire(d) })
		}
		out = IngestResponse{}
		return json.Unmarshal(b, &out)
	})
	return out, err
}

// Entities lists the server's harvest targets. The caller's context
// bounds the (retried) request.
func (c *Client) Entities(ctx context.Context) ([]EntityInfo, error) {
	var out []EntityInfo
	err := c.getJSON(ctx, "entities", apiRoot+"/entities", &out)
	if err != nil {
		return nil, err
	}
	return out, nil
}
