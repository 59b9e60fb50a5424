package webapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestJobsAPIBytes pins the jobs API's bytes on the wire: one
// single-entity job's NDJSON stream, its status with and without
// checkpoints, the jobs and scheduler sections of /api/v1/metrics before
// and after it, the 400 envelope of every request-level rejection, the 404
// of an unknown job, and the 501s of a server without a harvest backend
// and of a cluster coordinator. Every request is raw JSON over plain HTTP,
// so the transcript does not depend on the Go types either side uses.
// The scheduler's pool sizes follow GOMAXPROCS and are written as names.
// testdata/jobsapi.golden is the expected transcript.
func TestJobsAPIBytes(t *testing.T) {
	f := newHarvestFixture(t)
	aspect := string(f.aspect)
	entity := jobTargets(f, 1)[0]
	var tr strings.Builder

	do := func(base, method, path, body string) (int, string, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), raw
	}
	record := func(name, base, method, path, body string) {
		t.Helper()
		status, ctype, raw := do(base, method, path, body)
		fmt.Fprintf(&tr, "== %s\n%s %s %s\n%d %s\n%s", name, method, path, body, status, ctype, raw)
	}
	metrics := func(name string) {
		t.Helper()
		_, _, raw := do(f.srv.URL, http.MethodGet, "/api/v1/metrics", "")
		var sections map[string]json.RawMessage
		if err := json.Unmarshal(raw, &sections); err != nil {
			t.Fatal(err)
		}
		p := runtime.GOMAXPROCS(0)
		sched := bytes.Replace(sections["scheduler"],
			[]byte(fmt.Sprintf(`"selectWorkers":%d,"fetchWorkers":%d,`, p, 4*p)),
			[]byte(`"selectWorkers":GOMAXPROCS,"fetchWorkers":4×GOMAXPROCS,`), 1)
		fmt.Fprintf(&tr, "== %s\njobs %s\nscheduler %s\n", name, sections["jobs"], sched)
	}

	metrics("metrics before any job")
	status, _, raw := do(f.srv.URL, http.MethodPost, "/api/v1/jobs",
		fmt.Sprintf(`{"entities":[%d],"aspect":%q,"nQueries":2}`, entity, aspect))
	var accepted struct{ ID string }
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatalf("submit: %d %s", status, raw)
	}
	// The submit answer's state races the job's start; only its status and
	// id are pinned.
	fmt.Fprintf(&tr, "== submit\n%d %s\n", status, accepted.ID)
	jobPath := "/api/v1/jobs/" + accepted.ID
	record("stream", f.srv.URL, http.MethodGet, jobPath+"?stream=1", "")
	record("status with checkpoints", f.srv.URL, http.MethodGet, jobPath+"?checkpoints=1", "")
	record("status", f.srv.URL, http.MethodGet, jobPath, "")
	metrics("metrics after the job")
	record("delete a finished job", f.srv.URL, http.MethodDelete, jobPath, "")
	record("status of a deleted job", f.srv.URL, http.MethodGet, jobPath, "")

	tooMany := make([]string, 65)
	for i := range tooMany {
		tooMany[i] = fmt.Sprint(i)
	}
	one := func(extra string) string {
		return fmt.Sprintf(`{"entities":[0],"aspect":%q,"nQueries":1%s}`, aspect, extra)
	}
	for _, tc := range []struct{ name, body string }{
		{"no entities", fmt.Sprintf(`{"aspect":%q}`, aspect)},
		{"unknown aspect", `{"entities":[0],"aspect":"NOPE"}`},
		{"unknown strategy", one(`,"strategy":"HODL"`)},
		{"baseline LM", one(`,"strategy":"LM"`)},
		{"baseline AQ", one(`,"strategy":"AQ"`)},
		{"baseline HR", one(`,"strategy":"HR"`)},
		{"baseline MQ", one(`,"strategy":"MQ"`)},
		{"negative budget", fmt.Sprintf(`{"entities":[0],"aspect":%q,"nQueries":-1}`, aspect)},
		{"budget over cap", fmt.Sprintf(`{"entities":[0],"aspect":%q,"nQueries":10000}`, aspect)},
		{"negative pool", one(`,"budget":{"mode":"adaptive","totalQueries":-5}`)},
		{"negative patience", one(`,"budget":{"mode":"adaptive","patience":-1}`)},
		{"negative maxPerEntity", one(`,"budget":{"mode":"adaptive","maxPerEntity":-1}`)},
		{"negative minGain", one(`,"budget":{"mode":"adaptive","minGain":-0.5}`)},
		{"unknown budget mode", one(`,"budget":{"mode":"yolo"}`)},
		{"pool over cap", one(`,"budget":{"mode":"adaptive","totalQueries":51}`)},
		{"too many entities", fmt.Sprintf(`{"entities":[%s],"aspect":%q,"nQueries":1}`, strings.Join(tooMany, ","), aspect)},
		{"repeated entity", fmt.Sprintf(`{"entities":[22,23,22],"aspect":%q,"nQueries":1}`, aspect)},
		{"resume for an entity not requested", fmt.Sprintf(`{"entities":[22],"aspect":%q,"nQueries":1,"resume":[{"entity":23,"aspect":%q}]}`, aspect, aspect)},
		{"resume twice for one entity", fmt.Sprintf(`{"entities":[22,23],"aspect":%q,"nQueries":1,"resume":[{"entity":22,"aspect":%q},{"entity":22,"aspect":%q}]}`, aspect, aspect, aspect)},
		{"resume for another aspect", fmt.Sprintf(`{"entities":[22],"aspect":%q,"nQueries":1,"resume":[{"entity":22,"aspect":"WRONG"}]}`, aspect)},
		{"malformed body", `{"entities":`},
	} {
		record("400 "+tc.name, f.srv.URL, http.MethodPost, "/api/v1/jobs", tc.body)
	}

	plain := httptest.NewServer(NewServer(f.g.Corpus, bootLive(f.g.Corpus), nil).Handler())
	defer plain.Close()
	record("501 without a harvest backend", plain.URL, http.MethodPost, "/api/v1/jobs", one(""))
	record("404 of an unknown job", plain.URL, http.MethodGet, "/api/v1/jobs/j1", "")

	co := httptest.NewServer(NewCoordinatorServer(dialCluster(t, startClusterNodes(t, f.g, 3, 2, nil), 2, 0)).Handler())
	defer co.Close()
	record("501 submit on a coordinator", co.URL, http.MethodPost, "/api/v1/jobs", one(""))
	record("501 status on a coordinator", co.URL, http.MethodGet, "/api/v1/jobs/j1", "")
	record("501 stream on a coordinator", co.URL, http.MethodGet, "/api/v1/jobs/j1?stream=1", "")
	record("501 cancel on a coordinator", co.URL, http.MethodDelete, "/api/v1/jobs/j1", "")

	want, err := os.ReadFile("testdata/jobsapi.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.String(); got != string(want) {
		t.Errorf("jobs API transcript differs from testdata/jobsapi.golden:\n%s", got)
	}
}
