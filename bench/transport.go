package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// tracingTransport wraps http.DefaultTransport — which every client the
// program dials uses — and records one span per HTTP round trip, from the
// request leaving to the response body being closed, with the bytes read.
// It is installed for traced runs only and passes requests straight
// through while no tracer is active.
type tracingTransport struct {
	base   http.RoundTripper
	active atomic.Pointer[tracer]
}

// installTransport replaces http.DefaultTransport, once, for the rest of
// the process.
var installTransport = sync.OnceValue(func() *tracingTransport {
	t := &tracingTransport{base: http.DefaultTransport}
	http.DefaultTransport = t
	return t
})

// idleConnsPerHost replaces net/http's default of 2 idle connections per
// host in the generator's own http.DefaultTransport. A client has up to
// three requests in flight (PrefetchWorkers 2), the quality probe runs two
// clients side by side, and more than two connections thrash a pool of
// two: measured with two clients, about one request in seven then opened
// a new TCP connection, and how many did varied from run to run
// (ops_per_s ranged 769–943 on one seed of search_frozen; 947–1048 with
// the pool sized to the load). The pool
// belongs to the process that embeds the client, so the generator sizes
// it; transports inside the l2qserve processes stay as the program sets
// them.
const idleConnsPerHost = 16

// sizeIdlePool applies idleConnsPerHost. It must run before
// installTransport wraps the default transport.
func sizeIdlePool() {
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.MaxIdleConnsPerHost = idleConnsPerHost
	}
}

type spanKey struct{}

// withSpan makes id the parent of HTTP round trips made under ctx; used
// by streams that run beside the traced client.
func withSpan(ctx context.Context, id int) context.Context {
	if id < 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

// routeOf names the API route of a request path.
func routeOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/page/"):
		return "page"
	case strings.HasSuffix(path, "/search"):
		return "search"
	case strings.HasSuffix(path, "/collfreq"):
		return "collfreq"
	case strings.HasSuffix(path, "/ingest"):
		return "ingest"
	case strings.HasSuffix(path, "/stats"):
		return "stats"
	case strings.HasSuffix(path, "/metrics"):
		return "metrics"
	}
	return "other"
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.active.Load()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	parent := -1
	if v, ok := req.Context().Value(spanKey{}).(int); ok {
		parent = v
	}
	id := tr.detached("http:"+routeOf(req.URL.Path), parent)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		tr.endDetached(id, 0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: tr, id: id}
	return resp, nil
}

// spanBody ends the round trip's span when the caller closes the body.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	id   int
	n    int64
	done bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	if !b.done {
		b.done = true
		b.tr.endDetached(b.id, b.n)
	}
	return b.ReadCloser.Close()
}
