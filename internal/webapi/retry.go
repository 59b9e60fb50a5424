package webapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// RetryPolicy controls how the client retries its idempotent requests —
// every GET, and the POSTs of ingest batches and stats pushes, whose
// re-delivery changes nothing; a job's submit and cancel are sent once under
// any policy. It tunes how hard the client fights before a fault surfaces
// as an error. The zero value picks the defaults below.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request, including the
	// first (default 4; 1 disables retrying).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50 ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 2 s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// backoff returns the sleep before retry number retry (1-based): exponential
// growth capped at MaxDelay, with full jitter in [d/2, d] so a fleet of
// clients hammered by the same outage does not retry in lockstep.
func (p RetryPolicy) backoff(retry int) time.Duration {
	d := p.BaseDelay << (retry - 1)
	if d > p.MaxDelay || d <= 0 { // <= 0 guards shift overflow
		d = p.MaxDelay
	}
	half := d / 2
	return half + rand.N(d-half+1)
}

// sleep blocks for the backoff before the given retry, or until ctx is
// canceled (returning the context error).
func (p RetryPolicy) sleep(ctx context.Context, retry int) error {
	t := time.NewTimer(p.backoff(retry))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TransportError is the typed failure of one client API operation after the
// retry policy was exhausted. It wraps the last underlying error and keeps
// enough structure (operation, path, HTTP status, attempt count) for
// callers to account failures instead of silently losing work.
type TransportError struct {
	// Op names the API operation: "stats", "search", "page", "jobstream".
	Op string
	// Path is the request path (query string included).
	Path string
	// Attempts is how many tries were made before giving up.
	Attempts int
	// Status is the last HTTP status received (0 when the failure was
	// below HTTP: dial errors, timeouts, truncated bodies).
	Status int
	// Code is the machine-readable error code from the server's error
	// envelope ("" when the failure was below HTTP or the body carried
	// no envelope — a pre-envelope server, a proxy error page).
	Code string
	// Err is the last underlying error.
	Err error
}

func (e *TransportError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("webapi: %s %s: status %d after %d attempt(s): %v",
			e.Op, e.Path, e.Status, e.Attempts, e.Err)
	}
	return fmt.Sprintf("webapi: %s %s: %v (after %d attempt(s))",
		e.Op, e.Path, e.Err, e.Attempts)
}

func (e *TransportError) Unwrap() error { return e.Err }

// statusError marks an HTTP error status inside the retry loop, carrying
// the decoded error envelope when the body held one.
type statusError struct {
	status int
	// code and the retryable hint come from the server's error envelope;
	// hinted is false when the body carried none (a pre-envelope server,
	// an intermediary's error page, an injected plain-text fault).
	code      string
	body      string
	hinted    bool
	retryHint bool
}

func (e *statusError) Error() string {
	if e.body == "" {
		return http.StatusText(e.status)
	}
	if e.code != "" {
		return fmt.Sprintf("%s: %s: %s", http.StatusText(e.status), e.code, e.body)
	}
	return fmt.Sprintf("%s: %s", http.StatusText(e.status), e.body)
}

// readError drains a non-200 response into a statusError, decoding the
// API's JSON error envelope when the body carries one. Only a bounded
// prefix of the body is ever read: a misbehaving server's multi-megabyte
// 500 page is not worth transferring to truncate.
func readError(resp *http.Response) *statusError {
	snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
	se := &statusError{status: resp.StatusCode, body: strings.TrimSpace(string(snippet))}
	var env errorEnvelope
	if json.Unmarshal(snippet, &env) == nil && env.Error.Message != "" {
		se.code = env.Error.Code
		se.body = env.Error.Message
		se.hinted = true
		se.retryHint = env.Error.Retryable
	}
	return se
}

// retryable classifies an in-loop failure. Connection errors, per-request
// timeouts, truncated reads and malformed payloads are transient (the
// server and corpus are healthy invariants; the wire is not). For HTTP
// error statuses the server's envelope hint wins when present; without
// one (a pre-envelope server, a proxy error page), 5xx and 429 are
// server-side hiccups worth retrying and other statuses are contract
// errors that retrying cannot fix. Cancellation is judged by the
// caller's context, not by error identity: an http.Client per-request
// Timeout also surfaces as context.DeadlineExceeded, and that is exactly
// the fault class the retry loop exists to absorb — only the caller's own
// ctx expiring ends the operation.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		if se.hinted {
			return se.retryHint
		}
		return se.status >= 500 || se.status == http.StatusTooManyRequests
	}
	return true
}

// ClientMetrics is a point-in-time snapshot of a client's request/failure
// accounting — the per-query API cost the paper's setting charges for.
type ClientMetrics struct {
	// Requests counts HTTP requests issued, retries included.
	Requests int64
	// Retries counts re-issued requests (Requests - Retries = first tries).
	Retries int64
	// Errors counts operations that failed even after retrying.
	Errors int64
	// PageFetches counts pages downloaded from /page/{id} (cache hits
	// excluded, and so are pages that arrived inside a search response —
	// those are PagesAttached) and every page ID a PagesHTML batch asked
	// /api/v1/cluster/pages for.
	PageFetches int64
	// PagesAttached counts page bodies accepted from search responses:
	// each one a page request the harvest did not have to make.
	PagesAttached int64
	// DecodedFromMemo counts search responses taken from the process-wide
	// decode memo: frames this client received byte for byte as a client
	// of its scope (base URL and tokenizer) had decoded before, so they
	// were neither inflated nor parsed again.
	DecodedFromMemo int64
	// CachedPages is how many parsed pages the client holds right now. The
	// cache is unbounded — sized by one harvest, which is what a client
	// lives for; the work of decoding pages outlives it in the decode
	// memo. A coordinator's per-node clients read 0 here: it fetches
	// bodies with PagesHTML and keeps them in its own bounded cache.
	CachedPages int
	// DecodeMemo is the decode memo itself, process-wide: every client's
	// hits and misses, and the decoded frames and body bytes it holds now
	// (≤ 4 096 frames of ≤ 4 KiB). All zero for a client outside it.
	DecodeMemo CacheMetrics
}

// metrics is the client's live counter set.
type metrics struct {
	requests      atomic.Int64
	retries       atomic.Int64
	errors        atomic.Int64
	pageFetches   atomic.Int64
	pagesAttached atomic.Int64
	// decodedFromMemo counts responses the decode memo answered.
	decodedFromMemo atomic.Int64
}

func (m *metrics) snapshot() ClientMetrics {
	return ClientMetrics{
		Requests:        m.requests.Load(),
		Retries:         m.retries.Load(),
		Errors:          m.errors.Load(),
		PageFetches:     m.pageFetches.Load(),
		PagesAttached:   m.pagesAttached.Load(),
		DecodedFromMemo: m.decodedFromMemo.Load(),
	}
}
