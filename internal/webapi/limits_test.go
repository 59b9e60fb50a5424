package webapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"l2q/internal/harvest"
	"l2q/internal/search"
	"l2q/internal/synth"
)

// TestRequestBodyLimits: every route that reads a request body refuses one
// past its limit with 413 too_large, not retryable — whether or not the
// request declared its length — and changes nothing: corpus, epoch, job
// registry and node readiness stay as they were. A body of exactly the
// limit is read whole and judged on its content, and a job body with bytes
// after its JSON value is a 400, not a job.
func TestRequestBodyLimits(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	live := bootLive(g.Corpus)
	writable := NewServer(g.Corpus, live, g.Tokenizer)
	writable.Harvest = &harvest.Backend{}
	node, err := NewNodeServer(g.Corpus, search.ClusterSpec{Nodes: 1, Replicas: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pagesBefore, epochBefore := g.Corpus.NumPages(), live.View().Epoch()

	// One buffer serves every route: a JSON value padded with spaces, cut
	// to length per request.
	padded := bytes.Repeat([]byte{' '}, maxResponseBytes+1)
	copy(padded, "{}")
	post := func(s *Server, path string, body []byte, declared bool) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if !declared {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}
	for _, rt := range []struct {
		name  string
		srv   *Server
		path  string
		limit int
	}{
		{"ingest", writable, apiRoot + "/ingest", maxResponseBytes},
		{"jobs", writable, apiRoot + "/jobs", maxJobBody},
		{"cluster stats", node, apiRoot + "/cluster/stats", maxResponseBytes},
	} {
		for _, declared := range []bool{true, false} {
			rec := post(rt.srv, rt.path, padded[:rt.limit+1], declared)
			var env errorEnvelope
			err := json.Unmarshal(rec.Body.Bytes(), &env)
			if rec.Code != http.StatusRequestEntityTooLarge || err != nil || env.Error.Code != "too_large" || env.Error.Retryable {
				t.Errorf("%s, limit+1 bytes (length declared %v): %d %s, want 413 too_large, not retryable",
					rt.name, declared, rec.Code, rec.Body.Bytes())
			}
		}
		if rec := post(rt.srv, rt.path, padded[:rt.limit], true); rec.Code == http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "bad_request") {
			t.Errorf("%s, limit bytes: %d %s, want the body judged on its content (400)", rt.name, rec.Code, rec.Body.Bytes())
		}
	}
	rec := post(writable, apiRoot+"/jobs", []byte(`{"entities":[1],"aspect":"RESEARCH"} {}`), true)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad request body") {
		t.Errorf("job body with trailing bytes: %d %s, want 400 bad request body", rec.Code, rec.Body.Bytes())
	}

	if g.Corpus.NumPages() != pagesBefore || live.View().Epoch() != epochBefore {
		t.Errorf("refused bodies moved the corpus (%d → %d pages) or the epoch (%d → %d)",
			pagesBefore, g.Corpus.NumPages(), epochBefore, live.View().Epoch())
	}
	if n := registeredJobs(writable); n != 0 {
		t.Errorf("refused job bodies registered %d job(s)", n)
	}
	n := node.Node()
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.ready {
		t.Error("a refused stats push made the node ready")
	}
}
