package harvest

import (
	"context"
	"encoding/json"
	"errors"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/pipeline"
	"l2q/internal/search"
	"l2q/internal/synth"
	"l2q/internal/textproc"
)

// TestPlanDomainModelError: a domain model that fails to learn fails the
// request as the backend's error, not as a refused request, and the next
// request asks the backend again — Plan keeps no model of its own.
func TestPlanDomainModelError(t *testing.T) {
	const a = corpus.Aspect("A")
	calls := 0
	be := Backend{
		Aspects: []corpus.Aspect{a},
		Y:       func(corpus.Aspect) func(*corpus.Page) bool { return func(*corpus.Page) bool { return false } },
		DomainModel: func(x corpus.Aspect) (*core.DomainModel, error) {
			if calls++; calls == 1 {
				return nil, errors.New("learner failed")
			}
			return &core.DomainModel{Aspect: x}, nil
		},
	}
	req := Request{Entities: []corpus.EntityID{1}, Aspect: string(a), NQueries: 1}
	if _, err := be.Plan(req); err == nil || errors.As(err, new(*RequestError)) {
		t.Errorf("failed learn: %v, want a backend error, not a request error", err)
	}
	if p, err := be.Plan(req); err != nil || p.DM == nil || p.DM.Aspect != a {
		t.Errorf("after a failed learn: %v, %v; want the model learned again", p, err)
	}
}

// stalledRetriever answers no search until its caller gives up, and
// signals entered, without blocking, as each search begins.
type stalledRetriever struct {
	core.Retriever
	entered chan<- struct{}
}

func (r stalledRetriever) Retrieve(ctx context.Context, _ []search.Result, _, _ []textproc.Token) ([]search.Result, error) {
	select {
	case r.entered <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCloseWaitsForJobs: once Close returns, every job has reached its
// final state with its outcome logged — nothing of a job runs on past a
// server's Shutdown. Every search stalls until the registry's context is
// canceled, so both jobs are certainly mid-harvest when it is.
func TestCloseWaitsForJobs(t *testing.T) {
	g, err := synth.Generate(synth.TestConfig(synth.DomainResearchers))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Tokenizer = g.Tokenizer
	ents := g.Corpus.Entities
	p := &Plan{Cfg: cfg, Aspect: synth.AspResearch, Selector: core.NewL2QBAL(),
		Y:        func(*corpus.Page) bool { return false },
		Entities: []corpus.EntityID{ents[len(ents)-2].ID, ents[len(ents)-1].ID}, NQueries: 5}
	entered := make(chan struct{}, 1)
	ret := stalledRetriever{Retriever: search.NewEngine(search.BuildIndex(g.Corpus.Pages)), entered: entered}

	ctx, cancel := context.WithCancel(context.Background())
	r := NewJobs(ctx, pipeline.Config{})
	jobs := []*Job{r.Submit(p, ret, g.Corpus.Entity), r.Submit(p, ret, g.Corpus.Entity)}
	<-entered
	cancel()
	r.Close()
	for _, j := range jobs {
		st := j.Status(false)
		var last Event
		if st.Events > 0 {
			evs, _, _ := j.Events(context.Background(), st.Events-1)
			last = evs[0]
		}
		if st.State != JobCanceled || st.Failed != len(p.Entities) || last.Type != "done" {
			t.Errorf("job %s after Close: %+v, last event %+v; want canceled, every entity failed, done logged", j.ID(), st, last)
		}
	}
}

// TestNoTransport: the harvest service is transport-free. Neither this
// package nor any package of the module it imports, directly or through
// others, may import net/http or internal/webapi — webapi is the
// transport that calls in here, never the other way round.
func TestNoTransport(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	const module = "l2q/"
	seen := map[string]bool{}
	var visit func(pkg, from string)
	visit = func(pkg, from string) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		dir := filepath.Join(root, strings.TrimPrefix(pkg, module))
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s (imported by %s): no Go files in %s", pkg, from, dir)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				switch {
				case path == "net/http" || path == module+"internal/webapi":
					t.Errorf("%s imports %s (reached from %s)", file, path, from)
				case strings.HasPrefix(path, module):
					visit(path, pkg)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatal(err)
	}
	visit(module+"internal/harvest", "the test")
}

// TestEventJSON pins an event's line: entity 0 is a real entity, so every
// per-entity event carries "entity":0 for it, and the batch summary
// carries no entity at all.
func TestEventJSON(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{Type: "progress", Entity: 0, Iteration: 1, Query: "q", NewPages: 2, TotalPages: 2},
			`{"type":"progress","entity":0,"iteration":1,"query":"q","newPages":2,"totalPages":2}`},
		{Event{Type: "entity", Entity: 0, Fired: []string{"q"}, Pages: []corpus.PageID{4}},
			`{"type":"entity","entity":0,"fired":["q"],"pages":[4]}`},
		{Event{Type: "error", Entity: 0, Error: "boom"}, `{"type":"error","entity":0,"error":"boom"}`},
		{Event{Type: "error", Entity: 7, Error: "boom"}, `{"type":"error","entity":7,"error":"boom"}`},
		{Event{Type: "done", Entities: 2, Failed: 1}, `{"type":"done","entities":2,"failed":1}`},
	} {
		got, err := json.Marshal(tc.ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s event: %s, want %s", tc.ev.Type, got, tc.want)
		}
		var back Event
		if err := json.Unmarshal(got, &back); err != nil || !reflect.DeepEqual(back, tc.ev) {
			t.Errorf("%s event: %s decodes to %+v (%v)", tc.ev.Type, got, back, err)
		}
	}
}

// TestBudgetDecodesStrictly: the budget object takes its one key and
// refuses any other by name — a client still sending a removed tuning
// knob learns so instead of having it ignored — while the rest of a
// request decodes as leniently as before.
func TestBudgetDecodesStrictly(t *testing.T) {
	for _, tc := range []struct {
		body, wantErr string
		want          pipeline.BudgetPolicy
	}{
		{`{"budget":{"mode":"adaptive"},"unknownTopLevel":1}`, "",
			pipeline.BudgetPolicy{Mode: pipeline.BudgetAdaptive, MaxPerEntity: maxQueries}},
		{`{"budget":{"mode":"fixed"}}`, "", pipeline.BudgetPolicy{}},
		{`{"budget":null}`, "", pipeline.BudgetPolicy{}},
		{`{"budget":{"mode":"adaptive","patience":2}}`, `budget: unknown field "patience"`, pipeline.BudgetPolicy{}},
		{`{"budget":{"totalQueries":5}}`, `budget: unknown field "totalQueries"`, pipeline.BudgetPolicy{}},
	} {
		var req Request
		err := json.Unmarshal([]byte(tc.body), &req)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("%s: error %v, want %q", tc.body, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.body, err)
			continue
		}
		if got, err := req.Budget.policy(); err != nil || got != tc.want {
			t.Errorf("%s: policy %+v (%v), want %+v", tc.body, got, err, tc.want)
		}
	}
}

// TestNewJobsStartsNothing: a registry starts no goroutine before its
// first job.
func TestNewJobsStartsNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewJobs(context.Background(), pipeline.Config{})
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("NewJobs started %d goroutines", n-before)
	}
	r.Close()
}
