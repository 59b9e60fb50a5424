package webapi

// The versioned serving surface. Every route the server exposes is
// declared exactly once, in the registry below: method, /api/v1 path,
// the binary frame kind the route can negotiate, and whether the request
// is a long-lived event stream. Handler() mounts the registry;
// instrument() applies each route's declared behavior (write deadline,
// Vary header) so no handler or middleware has to pattern-match paths to
// know how to treat a request.
//
// Codec negotiation is per request: a client that sends
// Accept: application/x-l2q-wire on a wire-capable route receives one
// L2QWIR1 frame; everyone else gets JSON, which stays the default and the
// debug path. A job's event stream is NDJSON whatever the request accepts
// (jobs.go says why). Errors are ALWAYS the JSON envelope below, on every
// route and both codecs, so one error decoder serves the whole API.

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"l2q/internal/store"
)

// apiRoute is one row of the serving surface's route registry.
type apiRoute struct {
	method string
	// path is the canonical versioned pattern (/api/v1/...) or a bare
	// non-API path (/healthz, /page/{id}).
	path string
	// wire is the binary frame kind this route can negotiate
	// (0 = the route is JSON-only).
	wire byte
	// stream reports whether this request is a long-lived event stream,
	// exempt from the static write deadline (streams roll their own
	// deadline per event). nil = never streams.
	stream func(*http.Request) bool
	h      http.HandlerFunc
}

// routes is the one registry of the serving surface.
func (s *Server) routes() []apiRoute {
	streamParam := func(r *http.Request) bool { return r.URL.Query().Get("stream") != "" }
	return []apiRoute{
		{method: "GET", path: "/healthz", h: s.handleHealthz},
		{method: "GET", path: "/api/v1/stats", wire: wireStats, h: s.handleStats},
		{method: "GET", path: "/api/v1/search", wire: wireSearch, h: s.handleSearch},
		{method: "GET", path: "/api/v1/entities", h: s.handleEntities},
		{method: "GET", path: "/api/v1/metrics", h: s.handleMetrics},
		{method: "GET", path: "/api/v1/cluster/search", wire: wireSearch, h: s.handleClusterSearch},
		{method: "GET", path: "/api/v1/cluster/stats", h: s.handleClusterStats},
		{method: "POST", path: "/api/v1/cluster/stats", h: s.handleClusterStats},
		{method: "GET", path: "/api/v1/cluster/pages", wire: wirePages, h: s.handleClusterPages},
		{method: "POST", path: "/api/v1/ingest", wire: wireIngest, h: s.handleIngest},
		{method: "POST", path: "/api/v1/jobs", h: s.handleJobSubmit},
		{method: "GET", path: "/api/v1/jobs/{id}", stream: streamParam, h: s.handleJobGet},
		{method: "DELETE", path: "/api/v1/jobs/{id}", h: s.handleJobDelete},
		{method: "GET", path: "/page/{id}", wire: wirePage, h: s.handlePage},
	}
}

// Handler returns the routed http.Handler (useful for httptest or custom
// servers). Safe to call from concurrent goroutines.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.Handle(rt.method+" "+rt.path, s.instrument(rt))
	}
	// What no route matches fails like everything else, in the envelope.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "no route for "+r.Method+" "+r.URL.Path)
	})
	return s.limit(mux)
}

// instrument wraps one route's handler with its registry-declared
// behavior: the static write deadline on non-streaming requests (a
// slow-reading client must not pin a handler and its admission slot
// forever; streams roll their own deadline per event) and a Vary header
// on codec-negotiated routes (two representations of one resource —
// caches must key on the negotiation header). Deadline errors are
// best-effort: not every ResponseWriter supports them (httptest
// recorders).
func (s *Server) instrument(rt apiRoute) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rt.wire != 0 {
			w.Header().Add("Vary", "Accept")
		}
		if rt.stream == nil || !rt.stream(r) {
			_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(writeTimeout))
		}
		rt.h(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// wantsWire reports whether the request negotiated the binary codec: one
// of its Accept media ranges names the wire type (no wildcard does; JSON
// stays the default) with a weight above zero — q=0 means "not
// acceptable" (RFC 9110 §12.4.2).
func wantsWire(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for more := true; more; {
			var rng string
			rng, accept, more = strings.Cut(accept, ",")
			typ, params, _ := strings.Cut(rng, ";")
			if strings.EqualFold(strings.TrimSpace(typ), wireContentType) && acceptable(params) {
				return true
			}
		}
	}
	return false
}

// acceptable reports whether a media range's parameters leave it acceptable:
// no q parameter, or one that is not a number at or below zero.
func acceptable(params string) bool {
	for more := params != ""; more; {
		var p string
		p, params, more = strings.Cut(params, ";")
		name, value, _ := strings.Cut(p, "=")
		if strings.EqualFold(strings.TrimSpace(name), "q") {
			q, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
			return err != nil || q > 0
		}
	}
	return true
}

// respond writes one payload in the negotiated codec: a single wire
// frame of the given kind, or jsonV as JSON (the default).
func (s *Server) respond(w http.ResponseWriter, r *http.Request, kind byte, encode func(*store.Enc), jsonV any) {
	if !wantsWire(r) {
		writeJSON(w, jsonV)
		return
	}
	writeFrame(w, s.frame(kind, encode))
}

// frame encodes one response payload with encode and frames it as
// marshalFrame does, through the server's frame memo: a payload this
// server has framed before is not deflated again.
func (s *Server) frame(kind byte, encode func(*store.Enc)) []byte {
	e := encPool.Get().(*store.Enc)
	e.Reset()
	encode(e)
	out := s.frames.wrap(kind, e.Data())
	encPool.Put(e)
	return out
}

// writeFrame writes one frame as the whole response body.
func writeFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", wireContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame)
}

// apiError is the error payload inside the envelope.
type apiError struct {
	// Code is a stable machine-readable discriminator.
	Code string `json:"code"`
	// Message is the human-readable failure description.
	Message string `json:"message"`
	// Retryable is the server's hint: true when re-issuing the identical
	// request may succeed (overload, transient internal failure).
	Retryable bool `json:"retryable"`
}

// errorEnvelope is the ONE error shape every handler emits:
// {"error":{"code","message","retryable"}}. Clients decode it into
// *TransportError; the retryable hint feeds the client's retry loop.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

// errorCode maps an HTTP status to its envelope code.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusNotImplemented:
		return "not_implemented"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusTooManyRequests:
		return "throttled"
	default:
		if status >= 500 {
			return "internal"
		}
		return "error"
	}
}

// statusRetryable is the server's retryability rule: overload and
// transient server-side failures are worth re-issuing; contract errors
// (4xx) and permanently absent capabilities (501) are not.
func statusRetryable(status int) bool {
	return status == http.StatusTooManyRequests ||
		(status >= 500 && status != http.StatusNotImplemented)
}

// writeError emits the API's unified JSON error envelope. Errors are
// never framed, even on wire-negotiated requests: a client must be able
// to decode a failure before (or without) speaking the binary codec.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: apiError{
		Code:      errorCode(status),
		Message:   msg,
		Retryable: statusRetryable(status),
	}})
}

// readBody reads a request body whole, refusing one past limit bytes with
// 413 instead of cutting it into a parse error a client could not tell
// from a malformed body, and answering a failed read 400. It writes the
// error itself (ok false).
func readBody(w http.ResponseWriter, r *http.Request, limit int) (body []byte, ok bool) {
	body, err := readBounded(r.Body, r.ContentLength, limit)
	if err != nil {
		status := http.StatusBadRequest
		var he *httpError
		if errors.As(err, &he) {
			status = he.status
		}
		writeError(w, status, "reading body: "+err.Error())
		return nil, false
	}
	return body, true
}
