package webapi

// The binary wire protocol: a length-prefixed, CRC-framed encoding for
// the serving boundary's hot payloads — search hits, page bodies and
// ingest batches. It extends the
// framed-CRC idiom of the durable store artifacts (L2QSTOR1, L2QCKPT1,
// L2QDOM1) to the live wire, reusing the store package's exported payload
// primitives (store.Enc/store.Dec).
//
// Frame layout (one frame per body, request or response):
//
//	magic "L2QWIR1" (7 bytes)
//	kind  byte   — payload type (wireStats, wireSearch, ...)
//	flags byte   — bit 0: payload is gzip-compressed
//	payloadLen uvarint — length of the on-wire payload (post-compression)
//	crc32 (4B LE)      — IEEE CRC of the on-wire payload
//	payload
//
// The CRC covers the bytes as transferred, so integrity is verified
// before inflating. Negotiation is per request: a client that sends
// Accept: application/x-l2q-wire gets frames; everyone else gets the
// JSON (or raw-HTML, for pages) debug path, which stays the default.
// Because every frame self-identifies with the magic, a client can also
// sniff the response body: a server that ignored the Accept header (an
// older release, a plain proxy error) is detected and decoded as JSON —
// the clean mixed-version fallback.
//
// Encode buffers and gzip coders are pooled: a busy server frames every
// hot response without per-request allocations beyond the frame itself,
// and deflates each distinct response once — a frame it has built before
// comes out of its frame memo (frameMemo) without any allocation.

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"l2q/internal/corpus"
	"l2q/internal/search"
	"l2q/internal/store"
)

// wireMagic identifies a wire frame and its major version.
const wireMagic = "L2QWIR1"

// wireContentType is the negotiated media type of framed responses.
const wireContentType = "application/x-l2q-wire"

// WireContentType is the media type a client sends in Accept (and a
// server answers in Content-Type) to negotiate the binary wire codec.
// Exported for l2qserve's banner and for non-Go clients of the API.
const WireContentType = wireContentType

// Frame payload kinds. Four numbers are retired — no route negotiates them,
// every decoder rejects them, and no new kind may reuse them: 4 was the
// collfreq batch of the deleted /api/v1/collfreq route; 5 the entity list
// and 7 a node's registration report, both JSON whatever Accept says now
// (once-per-boot payloads, not worth a second codec; an older client that
// asks for frames sniffs the JSON and decodes it as such); 6 (wireEvent)
// one harvest event of a framed event stream, which is NDJSON only now (an
// older client that still asks a job stream for frames is answered NDJSON
// under its own Content-Type, which that client dispatches on).
const (
	wireStats  byte = 1
	wireSearch byte = 2
	wirePage   byte = 3
	wireIngest byte = 8
	// wireSearchPages is a search answered with=pages: the wireSearch
	// payload followed by the page bodies of its hits (see
	// encodeSearchPagesWire).
	wireSearchPages byte = 9
	// wirePages is a node's batch of page bodies (encodePagesWire).
	wirePages byte = 10
)

// Frame flags.
const wireFlagGzip byte = 1

// compressMin is the gzip threshold: payloads at least this large are
// compressed inside their frame. Small payloads skip compression — the
// gzip header plus CPU costs more than it saves. A constant, like
// frameGzipLevel: a rendered page is past it and a stats frame is not.
const compressMin = 1 << 10

// encPool recycles payload encoders across requests.
var encPool = sync.Pool{New: func() any { return new(store.Enc) }}

// frameGzipLevel is the one level frames are deflated at. A constant, not
// an option, chosen by arithmetic (DESIGN.md "Binary wire frames" has the
// table): against the library default, level 1 frames a five-page search
// response in well under half the CPU for a tenth more bytes, which is
// faster end to end on any link above a few tens of Mbit/s — and the flag
// byte says "gzip", not which level, so no decoder can tell.
const frameGzipLevel = gzip.BestSpeed

// gzipWPool recycles gzip writers (Reset re-arms them).
var gzipWPool = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(io.Discard, frameGzipLevel) // errs on an invalid level only
	return zw
}}

// gzipBufPool recycles the buffers wrapFrame compresses into.
var gzipBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// gzipRPool recycles gzip readers.
var gzipRPool sync.Pool

// marshalFrame encodes one payload with encode and wraps it in a wire
// frame, gzipped from compressMin bytes up — deflating every time: what a
// client frames its ingest requests with. A server frames its responses
// through its frame memo instead (Server.frame).
func marshalFrame(kind byte, encode func(*store.Enc)) []byte {
	e := encPool.Get().(*store.Enc)
	e.Reset()
	encode(e)
	out := wrapFrame(kind, e.Data(), e.Len() >= compressMin)
	encPool.Put(e)
	return out
}

// wrapFrame wraps payload in a wire frame of its own, gzipped when zip is
// set and the compressed form is actually smaller.
func wrapFrame(kind byte, payload []byte, zip bool) []byte {
	flags := byte(0)
	if zip {
		zbuf := gzipBufPool.Get().(*bytes.Buffer)
		defer gzipBufPool.Put(zbuf) // the frame below copies what it keeps
		zbuf.Reset()
		zw := gzipWPool.Get().(*gzip.Writer)
		zw.Reset(zbuf)
		zw.Write(payload) //nolint:errcheck // bytes.Buffer cannot fail
		_ = zw.Close()
		gzipWPool.Put(zw)
		if zbuf.Len() < len(payload) {
			payload = zbuf.Bytes()
			flags |= wireFlagGzip
		}
	}
	out := make([]byte, 0, len(wireMagic)+2+binary.MaxVarintLen64+4+len(payload))
	out = append(out, wireMagic...)
	out = append(out, kind, flags)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// maxMemoFrame is the largest frame a frameMemo, or the client's decode
// memo, keeps. A constant, like the capacity beside it
// (search.DefaultCacheSize): together they bound a server's memo at 16 MiB,
// and a five-page search frame (≈ 1.7 kB) is far under it — a larger one is
// served, or decoded, and forgotten.
const maxMemoFrame = 4 << 10

// sizedCache is a search.Cache that also keeps the total size of the values
// it holds: a server's frame memo, a coordinator's body cache and the
// process-wide decode memo, each reported as one CacheMetrics.
type sizedCache[V any] struct {
	cache *search.Cache[V]
	size  func(V) int
	// bytes is the total size of the values held (a counter kept beside
	// the cache, so it may trail its entries by an insert).
	bytes atomic.Int64
}

func newSizedCache[V any](capacity int, size func(V) int) *sizedCache[V] {
	return &sizedCache[V]{cache: search.NewCache[V](capacity), size: size}
}

func (c *sizedCache[V]) get(key []byte) (V, bool) { return c.cache.Get(key) }

// put stores v under key, accounting for the value the insert displaced.
func (c *sizedCache[V]) put(key []byte, v V) {
	if old, ok := c.cache.Put(key, v); ok {
		c.bytes.Add(-int64(c.size(old)))
	}
	c.bytes.Add(int64(c.size(v)))
}

// metrics reads the cache for /api/v1/metrics and ClientMetrics.
func (c *sizedCache[V]) metrics() CacheMetrics {
	var m CacheMetrics
	m.Hits, m.Misses, m.Entries = c.cache.Stats()
	m.Bytes = c.bytes.Load()
	return m
}

// frameMemo holds the compressed frames a server has built, keyed by
// content: kind ‖ SHA-256(payload). Level-1 deflate is a function of its
// input, so a frame built again from the same payload is the same bytes;
// the memo only saves deflating them twice. Stored frames are shared
// across requests and never written after they are built. Only payloads
// at or above compressMin go through it — a smaller frame is not deflated,
// so there is nothing to save.
type frameMemo struct{ *sizedCache[[]byte] }

func newFrameMemo() *frameMemo {
	return &frameMemo{newSizedCache(search.DefaultCacheSize, func(b []byte) int { return len(b) })}
}

// wrap is wrapFrame(kind, payload, len(payload) >= compressMin), taken
// from the memo when this payload was framed before.
func (m *frameMemo) wrap(kind byte, payload []byte) []byte {
	if len(payload) < compressMin {
		return wrapFrame(kind, payload, false)
	}
	var key [1 + sha256.Size]byte
	key[0] = kind
	sum := sha256.Sum256(payload)
	copy(key[1:], sum[:])
	if frame, ok := m.get(key[:]); ok {
		return frame
	}
	frame := wrapFrame(kind, payload, true)
	if len(frame) <= maxMemoFrame {
		m.put(key[:], frame)
	}
	return frame
}

// isWireFrame sniffs a response body for the frame magic — how a client
// that asked for binary discovers whether the server actually spoke it.
func isWireFrame(b []byte) bool {
	return len(b) >= len(wireMagic) && string(b[:len(wireMagic)]) == wireMagic
}

// frameKind sniffs the payload kind a frame announces (0 for a body too
// short to say) — how a client that asked a search for its pages discovers
// whether the server attached them.
func frameKind(b []byte) byte {
	if !isWireFrame(b) || len(b) == len(wireMagic) {
		return 0
	}
	return b[len(wireMagic)]
}

// openFrame verifies and unwraps a single-frame body: magic, kind, CRC,
// exact length (no trailing bytes), then inflation if flagged. The
// returned payload is safe to retain.
func openFrame(b []byte, wantKind byte) ([]byte, error) {
	if !isWireFrame(b) {
		return nil, fmt.Errorf("wire: missing frame magic")
	}
	rest := b[len(wireMagic):]
	if len(rest) < 2 {
		return nil, fmt.Errorf("wire: truncated frame header")
	}
	kind, flags := rest[0], rest[1]
	rest = rest[2:]
	size, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("wire: bad payload length")
	}
	rest = rest[n:]
	if len(rest) < 4 {
		return nil, fmt.Errorf("wire: truncated frame crc")
	}
	wantCRC := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(len(rest)) != size {
		return nil, fmt.Errorf("wire: frame declares %d payload bytes, has %d", size, len(rest))
	}
	if kind != wantKind {
		return nil, fmt.Errorf("wire: frame kind %d, want %d", kind, wantKind)
	}
	return checkAndInflate(rest, flags, wantCRC)
}

// checkAndInflate verifies the on-wire CRC and undoes compression.
func checkAndInflate(payload []byte, flags byte, wantCRC uint32) ([]byte, error) {
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("wire: frame checksum mismatch (got %08x, want %08x)", got, wantCRC)
	}
	if flags&wireFlagGzip == 0 {
		return payload, nil
	}
	var zr *gzip.Reader
	if v := gzipRPool.Get(); v != nil {
		zr = v.(*gzip.Reader)
		if err := zr.Reset(bytes.NewReader(payload)); err != nil {
			return nil, fmt.Errorf("wire: gzip: %w", err)
		}
	} else {
		var err error
		if zr, err = gzip.NewReader(bytes.NewReader(payload)); err != nil {
			return nil, fmt.Errorf("wire: gzip: %w", err)
		}
	}
	// A gzip member ends with ISIZE, its inflated length mod 2³² — here a
	// hint for the first allocation, bounded by what deflate can expand
	// the payload to. Whether the member is intact stays the reader's call
	// (its CRC and length check at EOF).
	hint := int64(0)
	if n := len(payload); n >= 4 {
		hint = min(int64(binary.LittleEndian.Uint32(payload[n-4:])), int64(n)*maxDeflateRatio)
	}
	out, err := readBounded(zr, hint, maxResponseBytes)
	closeErr := zr.Close()
	gzipRPool.Put(zr)
	if err == nil {
		err = closeErr
	}
	if err != nil {
		return nil, fmt.Errorf("wire: gunzip: %w", err)
	}
	return out, nil
}

// maxDeflateRatio bounds how far deflate can expand its input: a stored
// length-258 match costs no less than two bits, 1032 to 1.
const maxDeflateRatio = 1032

// readBounded reads r to EOF and fails — never truncates — when r holds
// more than limit bytes, with the 413 a server answers such a request body
// with (readBody). hint sizes the first allocation so a correct one
// makes it the only one; it is a number from outside the program (a gzip
// trailer, a Content-Length header), so it is clamped to [0, limit] and
// nothing else depends on it: a wrong hint costs regrowth, as io.ReadAll
// would.
func readBounded(r io.Reader, hint int64, limit int) ([]byte, error) {
	hint = max(0, min(hint, int64(limit)))
	// bytes.MinRead spare bytes: the read that reports EOF needs room.
	buf := make([]byte, 0, hint+bytes.MinRead)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return nil, httpErrorf(http.StatusRequestEntityTooLarge, "body exceeds %d bytes", limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// ---- payload codecs ----
//
// Every hot payload has a binary encode/decode pair held to decoded-value
// parity with the JSON path by the negotiation-matrix and differential
// tests. Zero-length slices decode as nil, matching encoding/json's
// omitempty round-trip, so reflect.DeepEqual parity holds across codecs.

func encodeStatsWire(e *store.Enc, st Stats) {
	e.Str(st.Domain)
	e.Varint(int64(st.NumEntities))
	e.Varint(int64(st.NumPages))
	e.Varint(int64(st.NumTerms))
	e.Varint(int64(st.TotalTokens))
	e.F64(st.Mu)
	e.Varint(int64(st.TopK))
}

func decodeStatsWire(d *store.Dec) Stats {
	return Stats{
		Domain:      d.Str(),
		NumEntities: int(d.Varint()),
		NumPages:    int(d.Varint()),
		NumTerms:    int(d.Varint()),
		TotalTokens: int(d.Varint()),
		Mu:          d.F64(),
		TopK:        int(d.Varint()),
	}
}

func encodeSearchWire(e *store.Enc, resp SearchResponse) {
	e.Str(resp.Query)
	e.Str(resp.Seed)
	partial := byte(0)
	if resp.Partial {
		partial = 1
	}
	e.Byte(partial)
	e.Uvarint(uint64(len(resp.Hits)))
	for _, h := range resp.Hits {
		e.Varint(int64(h.PageID))
		e.Str(h.URL)
		e.Str(h.Title)
		e.F64(h.Score)
	}
}

func decodeSearchWire(d *store.Dec) SearchResponse {
	resp := SearchResponse{Query: d.Str(), Seed: d.Str(), Partial: d.Byte() != 0}
	n := d.Count("search hits")
	if n > 0 {
		resp.Hits = make([]SearchHit, 0, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		resp.Hits = append(resp.Hits, SearchHit{
			PageID: corpus.PageID(d.Varint()),
			URL:    d.Str(),
			Title:  d.Str(),
			Score:  d.F64(),
		})
	}
	return resp
}

// encodeSearchPagesWire is encodeSearchWire followed by count × (page id,
// body): the HTML of every hit that carries one, in rank order. The hit
// list itself is written without bodies, so a wireSearch decoder reads the
// prefix unchanged.
func encodeSearchPagesWire(e *store.Enc, resp SearchResponse) {
	encodeSearchWire(e, resp)
	n := 0
	for i := range resp.Hits {
		if resp.Hits[i].HTML != "" {
			n++
		}
	}
	e.Uvarint(uint64(n))
	for i := range resp.Hits {
		if h := &resp.Hits[i]; h.HTML != "" {
			e.Varint(int64(h.PageID))
			e.Str(h.HTML)
		}
	}
}

// decodeSearchPagesWire inverts encodeSearchPagesWire, hanging every body
// on the hit it was announced for. A body announced for a page that is
// not a hit, out of rank order, twice, or empty poisons the decoder: the
// encoder writes none of these, and accepting them would let a body reach
// the page cache under an ID the ranking never named.
func decodeSearchPagesWire(d *store.Dec) SearchResponse {
	resp := decodeSearchWire(d)
	n := d.Count("attached pages")
	next := 0
	for i := 0; i < n && d.Err() == nil; i++ {
		id, body := corpus.PageID(d.Varint()), d.Str()
		for next < len(resp.Hits) && resp.Hits[next].PageID != id {
			next++
		}
		if d.Err() != nil {
			break
		}
		if next == len(resp.Hits) || body == "" {
			d.Fail(fmt.Sprintf("attached page %d (not a hit in rank order, or empty)", id))
			break
		}
		resp.Hits[next].HTML = body
		next++
	}
	return resp
}

// encodePagesWire writes a batch of page bodies: count × (page id, body).
func encodePagesWire(e *store.Enc, pages []PageBody) {
	e.Uvarint(uint64(len(pages)))
	for _, p := range pages {
		e.Varint(int64(p.PageID))
		e.Str(p.HTML)
	}
}

func decodePagesWire(d *store.Dec) []PageBody {
	n := d.Count("pages")
	pages := make([]PageBody, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		pages = append(pages, PageBody{PageID: corpus.PageID(d.Varint()), HTML: d.Str()})
	}
	return pages
}

// encodeIngestWire frames an ingest batch. Paragraph text rides as-is;
// tokenization is the SERVER's job (with the corpus tokenizer), which is
// what keeps grown rankings identical to a frozen rebuild — a client-side
// tokenizer could disagree on phrase boundaries.
func encodeIngestWire(e *store.Enc, req IngestRequest) {
	e.Uvarint(uint64(len(req.Pages)))
	for _, p := range req.Pages {
		e.Varint(int64(p.ID))
		e.Varint(int64(p.Entity))
		e.Str(p.EntityName)
		e.Str(p.SeedQuery)
		e.Str(p.URL)
		e.Str(p.Title)
		e.Uvarint(uint64(len(p.Paras)))
		for _, para := range p.Paras {
			e.Str(para.Text)
			e.Str(para.Aspect)
		}
		e.Uvarint(uint64(len(p.Links)))
		prev := int64(0)
		for _, id := range p.Links {
			e.Varint(int64(id) - prev)
			prev = int64(id)
		}
	}
}

func decodeIngestWire(d *store.Dec) IngestRequest {
	var req IngestRequest
	n := d.Count("ingest pages")
	if n > 0 {
		req.Pages = make([]IngestPage, 0, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		p := IngestPage{
			ID:         corpus.PageID(d.Varint()),
			Entity:     corpus.EntityID(d.Varint()),
			EntityName: d.Str(),
			SeedQuery:  d.Str(),
			URL:        d.Str(),
			Title:      d.Str(),
		}
		nPara := d.Count("ingest paragraphs")
		for j := 0; j < nPara && d.Err() == nil; j++ {
			p.Paras = append(p.Paras, IngestParagraph{Text: d.Str(), Aspect: d.Str()})
		}
		nLinks := d.Count("ingest links")
		prev := int64(0)
		for j := 0; j < nLinks && d.Err() == nil; j++ {
			prev += d.Varint()
			p.Links = append(p.Links, corpus.PageID(prev))
		}
		req.Pages = append(req.Pages, p)
	}
	return req
}

// encodeIngestAckWire frames the ingest acknowledgement (same frame kind
// as the request: the route owns the kind, direction disambiguates).
func encodeIngestAckWire(e *store.Enc, resp IngestResponse) {
	e.Varint(int64(resp.Ingested))
	e.Varint(int64(resp.Duplicates))
	e.Varint(int64(resp.NumDocs))
	e.Uvarint(resp.Epoch)
	e.Varint(int64(resp.Segments))
}

func decodeIngestAckWire(d *store.Dec) IngestResponse {
	return IngestResponse{
		Ingested:   int(d.Varint()),
		Duplicates: int(d.Varint()),
		NumDocs:    int(d.Varint()),
		Epoch:      d.Uvarint(),
		Segments:   int(d.Varint()),
	}
}

// decodeFramePayload opens a single-frame body and runs decode over it,
// insisting — like the store loaders — that the payload reads clean and
// is fully consumed.
func decodeFramePayload(b []byte, kind byte, decode func(*store.Dec)) error {
	payload, err := openFrame(b, kind)
	if err != nil {
		return err
	}
	d := store.NewDec(payload)
	decode(d)
	if err := d.Err(); err != nil {
		return fmt.Errorf("wire: frame payload: %w", err)
	}
	if !d.Done() {
		return fmt.Errorf("wire: frame payload has %d trailing bytes", d.Remaining())
	}
	return nil
}
