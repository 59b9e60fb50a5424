package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the index of the span that caused this one (-1 for
// an operation's root). Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// N is a count taken at the same boundary (bytes of an HTTP round
	// trip, pool size of a candidates span).
	N int64 `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced state: every method is a no-op, so the timed code paths are
// identical with tracing on and off except for the calls themselves.
//
// The traced run has exactly one closed-loop client, so "the innermost
// open span of that client" (the stack) is an unambiguous parent for
// anything the client causes on another goroutine, such as a prefetch
// worker's HTTP round trip. Streams that run beside the client (the
// ingest stream) carry their parent explicitly.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	stack []int
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens a root span for a new operation of the single client.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.rootLocked(name)
	t.stack = append(t.stack[:0], id)
	return id
}

// begin opens a child of the client's innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.childLocked(name, t.topLocked())
	t.stack = append(t.stack, id)
	return id
}

// end closes a span opened by beginOp or begin, and every span opened
// inside it that is still open.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.spans[top].End = now
		if top == id {
			return
		}
	}
	t.spans[id].End = now
}

// setN records the count taken at a span's boundary.
func (t *tracer) setN(id int, n int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].N = n
	t.mu.Unlock()
}

// detachedRoot opens the root span of an operation that runs beside the
// client (an ingest batch). Close it with endDetached.
func (t *tracer) detachedRoot(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rootLocked(name)
}

// detached opens a span that is not on the client's stack: parent ≥ 0
// names the parent explicitly, parent < 0 means the client's innermost
// open span (or a root when none is open). Close it with endDetached.
func (t *tracer) detached(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		parent = t.topLocked()
	}
	return t.childLocked(name, parent)
}

func (t *tracer) endDetached(id int, n int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = t.now()
	t.spans[id].N = n
	t.mu.Unlock()
}

// rootLocked appends the root span of a new operation.
func (t *tracer) rootLocked(name string) int {
	t.ops++
	t.spans = append(t.spans, span{Name: name, Op: t.ops, Parent: -1, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) topLocked() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

func (t *tracer) childLocked(name string, parent int) int {
	op := 0
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// snapshot copies the spans recorded so far; indices (and so Parent
// references) are stable. A span still open reads as zero-length.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].End < out[i].Start {
			out[i].End = out[i].Start
		}
	}
	return out
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// covered is the length of the union of the child intervals clipped to
// [start, end].
func covered(start, end int64, children [][2]int64) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i][0] < children[j][0] })
	var total int64
	cur := start
	for _, c := range children {
		lo, hi := max(c[0], cur), min(c[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover. keep selects which children count
// (nil: all of them).
func selfTimes(spans []span, keep func(child span) bool) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && (keep == nil || keep(s)) {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s.Start, s.End, kids[i])
	}
	return out
}
