// Package harvest runs the paper's loop (Fig. 1: fire q, fetch its pages,
// update Φ) as a batch for many entities of one aspect: what a harvest
// request is (Request, validated into a Plan), how a plan runs (Plan.Run:
// one session per entity on a shared pipeline.Scheduler, narrated as
// Events), and the jobs a server keeps of it (jobs.go). It knows nothing
// of HTTP: internal/webapi decodes a request, calls Backend.Plan and
// Jobs.Submit, and encodes what comes back; internal/eval runs its budget
// experiment through the same Plan.Run.
//
// Every job of a server runs on ONE shared scheduler: each entity of a job
// is one goroutine, admitted FIFO (behind the scheduler's MaxActive when
// that is set), and the goroutines of all jobs share the scheduler's
// select and fetch gates fairly, so concurrent jobs never select on more
// than GOMAXPROCS cores between them.
package harvest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"l2q/internal/baselines"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/pipeline"
	"l2q/internal/types"
)

// Backend supplies everything a harvest needs beyond the retriever: the
// L2Q configuration, the materialized relevance functions, the type
// system, and the domain models. It holds no state of its own, so a copy
// is a backend too.
type Backend struct {
	// Cfg is the L2Q model configuration; its Tokenizer must match the
	// served corpus.
	Cfg core.Config
	// Aspects lists the harvestable aspects.
	Aspects []corpus.Aspect
	// Y returns the materialized relevance function for an aspect.
	Y func(corpus.Aspect) func(*corpus.Page) bool
	// Rec is the type system for templates; nil disables templates.
	Rec types.Recognizer
	// DomainModel returns the domain model for an aspect; a nil func (or
	// nil model) harvests without domain awareness. Plan calls it for
	// every request, so it hands out a memoized model:
	// store.DomainLearner.Learn and System.HarvestBackend's learner go
	// through core.DomainSample.Model, which learns each aspect once. Its
	// error fails the request as the backend's.
	DomainModel func(corpus.Aspect) (*core.DomainModel, error)
}

// maxEntities bounds a request's entities and maxQueries its per-entity
// query budget. Constants, not options: together they bound the work one
// request can ask for (64 × 50 searches), and no server, example or test
// ever ran with other values.
const (
	maxEntities = 64
	maxQueries  = 50
)

// BudgetSpec is the wire form of pipeline.BudgetPolicy: how a request's
// query budget is allocated across its entities.
type BudgetSpec struct {
	// Mode is "fixed" (default: every entity fires exactly NQueries) or
	// "adaptive" (the batch pools NQueries×entities and reallocates each
	// round toward the highest marginal ΔR_E(Φ); an entity whose R_E(Φ)
	// reaches 1 or whose candidates run out donates its remainder, and
	// none fires more than the per-entity bound of 50).
	Mode string `json:"mode,omitempty"`
}

// UnmarshalJSON decodes the budget object strictly: a key it does not
// know is refused by name, so a client that sets a knob this server does
// not have learns so instead of having it silently ignored.
func (bs *BudgetSpec) UnmarshalJSON(data []byte) error {
	type spec BudgetSpec // the same fields without this method
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode((*spec)(bs)); err != nil {
		return fmt.Errorf("budget: %s", strings.TrimPrefix(err.Error(), "json: "))
	}
	return nil
}

func (bs *BudgetSpec) policy() (pipeline.BudgetPolicy, error) {
	if bs == nil {
		return pipeline.BudgetPolicy{}, nil
	}
	switch strings.ToLower(bs.Mode) {
	case "", "fixed":
		return pipeline.BudgetPolicy{Mode: pipeline.BudgetFixed}, nil
	case "adaptive":
		// maxQueries is the per-entity bound; donation must not let one
		// entity absorb the whole pool past it.
		return pipeline.BudgetPolicy{Mode: pipeline.BudgetAdaptive, MaxPerEntity: maxQueries}, nil
	}
	return pipeline.BudgetPolicy{}, invalid("unknown budget mode %q (fixed or adaptive)", bs.Mode)
}

// Request is a harvest as a client asks for it: the POST /api/v1/jobs
// body.
type Request struct {
	// Entities are the harvest targets, each at most once; unknown IDs
	// produce per-entity error events, not a failed request.
	Entities []corpus.EntityID `json:"entities"`
	// Aspect is the target aspect (must be one of the backend's Aspects).
	Aspect string `json:"aspect"`
	// Strategy names the selection strategy (default L2QBAL): one of the
	// ten L2Q strategies of baselines.Methods, case-insensitive.
	Strategy string `json:"strategy,omitempty"`
	// NQueries is the per-entity query budget after the seed.
	NQueries int `json:"nQueries"`
	// NoDomain disables domain awareness even when the backend can learn
	// a domain model.
	NoDomain bool `json:"noDomain,omitempty"`
	// Budget selects the allocation policy (nil/zero: fixed-equal).
	Budget *BudgetSpec `json:"budget,omitempty"`
	// Resume replays checkpointed sessions before harvesting: an entity
	// with a matching checkpoint starts from its recorded context Φ and
	// fires only its remaining budget (NQueries − |Fired|). At most one
	// checkpoint per entity, and only for entities in Entities; one that
	// fails replay verification yields a per-entity error event.
	Resume []core.Checkpoint `json:"resume,omitempty"`
}

// Event is one entry of a job's event log and one NDJSON line of its
// stream. Type discriminates: "progress" (one harvest iteration of one
// entity), "entity" (one entity finished, with its fired queries and
// gathered pages), "error" (one entity failed), and "done" (the batch
// summary, always the last line — a stream that ends without it was cut).
//
// Every event but "done" carries its "entity", entity 0 included; the
// "done" line carries none, since it is about the batch, not one entity
// (MarshalJSON).
type Event struct {
	Type string `json:"type"`
	// Entity is set on progress/entity/error events.
	Entity corpus.EntityID `json:"entity"`
	// Progress fields (mirroring core.TraceRecord).
	Iteration  int    `json:"iteration,omitempty"`
	Query      string `json:"query,omitempty"`
	NewPages   int    `json:"newPages,omitempty"`
	TotalPages int    `json:"totalPages,omitempty"`
	// Entity-completion fields.
	Fired []string        `json:"fired,omitempty"`
	Pages []corpus.PageID `json:"pages,omitempty"`
	// Done-summary fields.
	Entities int `json:"entities,omitempty"`
	Failed   int `json:"failed,omitempty"`
	// Error carries the failure of an "error" event.
	Error string `json:"error,omitempty"`
}

// MarshalJSON writes the event's JSON line: its fields in declaration
// order, with the entity key left out of the "done" summary. Entity is a
// plain value (0 is a real entity), so omitempty could not tell the two
// apart.
func (ev Event) MarshalJSON() ([]byte, error) {
	type fields Event // the same fields without this method
	if ev.Type != "done" {
		return json.Marshal(fields(ev))
	}
	return json.Marshal(struct {
		fields
		Entity *corpus.EntityID `json:"entity,omitempty"` // shadows fields.Entity; nil
	}{fields: fields(ev)})
}

// RequestError is a request Plan refuses: the caller's fault, which a
// server answers 400. Any other error from Plan is the backend's.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func invalid(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// Plan is a validated harvest: everything resolved except the sessions.
// Backend.Plan builds one from a Request; a caller that is not serving a
// request (an experiment) may fill one in directly.
type Plan struct {
	Cfg      core.Config
	Rec      types.Recognizer
	Aspect   corpus.Aspect
	Selector core.Selector
	DM       *core.DomainModel
	Y        func(*corpus.Page) bool
	Entities []corpus.EntityID
	// NQueries is each entity's budget after the seed; an entity resumed
	// from Resume fires only what its checkpoint has not.
	NQueries int
	Budget   pipeline.BudgetPolicy
	Resume   map[corpus.EntityID]core.Checkpoint
}

// Plan validates req against the backend's limits and resolves strategy,
// domain model, budget policy and resume checkpoints. A refused request
// is a *RequestError; a domain model that fails to learn is not.
func (b *Backend) Plan(req Request) (*Plan, error) {
	if len(req.Entities) == 0 {
		return nil, invalid("no entities requested")
	}
	if len(req.Entities) > maxEntities {
		return nil, invalid("too many entities: %d > %d", len(req.Entities), maxEntities)
	}
	// An entity is one session with one resume state: a repeat would run
	// twice and overwrite its own checkpoints.
	requested := make(map[corpus.EntityID]bool, len(req.Entities))
	for _, id := range req.Entities {
		if requested[id] {
			return nil, invalid("entity %d requested twice", id)
		}
		requested[id] = true
	}
	if req.NQueries < 0 || req.NQueries > maxQueries {
		return nil, invalid("nQueries out of range [0, %d]", maxQueries)
	}
	aspect := corpus.Aspect(req.Aspect)
	if !slices.Contains(b.Aspects, aspect) {
		return nil, invalid("unknown aspect %q (serving %v)", req.Aspect, b.Aspects)
	}
	strategy := req.Strategy
	if strategy == "" {
		strategy = "L2QBAL"
	}
	// A job runs the L2Q strategies only; the §VI-C baselines are
	// client-side concerns (HR needs a trained model no backend keeps).
	method, ok := baselines.LookupMethod(strategy)
	if !ok || method.Baseline {
		return nil, invalid("unknown strategy %q", req.Strategy)
	}
	budget, err := req.Budget.policy()
	if err != nil {
		return nil, err
	}
	p := &Plan{Cfg: b.Cfg, Rec: b.Rec, Aspect: aspect, Selector: method.New("", aspect, nil),
		Entities: req.Entities, NQueries: req.NQueries, Budget: budget}
	if len(req.Resume) > 0 {
		p.Resume = make(map[corpus.EntityID]core.Checkpoint, len(req.Resume))
		for _, cp := range req.Resume {
			switch _, dup := p.Resume[cp.Entity]; {
			case cp.Aspect != aspect:
				return nil, invalid("resume checkpoint for entity %d is for aspect %q, not %q", cp.Entity, cp.Aspect, aspect)
			case !requested[cp.Entity]:
				return nil, invalid("resume checkpoint for entity %d, which the request does not harvest", cp.Entity)
			case dup:
				return nil, invalid("two resume checkpoints for entity %d", cp.Entity)
			}
			p.Resume[cp.Entity] = cp
		}
	}
	if !req.NoDomain && b.DomainModel != nil {
		if p.DM, err = b.DomainModel(aspect); err != nil {
			return nil, fmt.Errorf("domain model: %w", err)
		}
	}
	p.Y = b.Y(aspect)
	return p, nil
}

// Run harvests p's entities through ret on sched and narrates the harvest
// to emit. Each known entity is one session seeded with its id + 1 —
// resumed under ctx from its checkpoint in p.Resume, if any — whose
// iterations emit "progress" events as they happen. An unknown entity
// (entity returns nil) or a failed resume emits an "error" event up front
// and runs no job; every job that ran ends in an "entity" (fired queries,
// gathered pages) or "error" event, in job order, and a "done" summary
// over p.Entities comes last. checkpoint, when non-nil, receives each
// session's state after every ingest. Run returns the scheduler's results,
// one per job that ran; a scheduler already shut down fails every job.
func (p *Plan) Run(ctx context.Context, sched *pipeline.Scheduler, ret core.Retriever,
	entity func(corpus.EntityID) *corpus.Entity, emit func(Event), checkpoint func(core.Checkpoint)) []pipeline.Result {

	failed := 0
	var jobs []pipeline.Job
	for _, id := range p.Entities {
		e := entity(id)
		if e == nil {
			failed++
			emit(Event{Type: "error", Entity: id, Error: fmt.Sprintf("unknown entity id %d", id)})
			continue
		}
		sess := core.NewSession(p.Cfg, ret, e, p.Aspect, p.Y, p.DM, p.Rec, uint64(e.ID)+1)
		nq := p.NQueries
		if cp, ok := p.Resume[e.ID]; ok {
			if err := sess.Resume(ctx, cp); err != nil {
				failed++
				emit(Event{Type: "error", Entity: e.ID, Error: "resume: " + err.Error()})
				continue
			}
			nq = max(nq-len(cp.Fired), 0)
		}
		sess.Trace = func(tr core.TraceRecord) {
			emit(Event{Type: "progress", Entity: id, Iteration: tr.Iteration, Query: string(tr.Query),
				NewPages: tr.NewPages, TotalPages: tr.TotalPages})
		}
		jobs = append(jobs, pipeline.Job{Session: sess, Selector: p.Selector, NQueries: nq})
	}

	opts := pipeline.BatchOptions{Budget: p.Budget}
	if checkpoint != nil {
		opts.Checkpoint = func(_ int, cp core.Checkpoint) { checkpoint(cp) }
	}
	var results []pipeline.Result
	if b, err := sched.Submit(ctx, jobs, opts); err != nil {
		results = make([]pipeline.Result, len(jobs))
		for i := range jobs {
			results[i] = pipeline.Result{Job: &jobs[i], Err: err}
		}
	} else {
		results = b.Await(ctx)
	}

	for _, res := range results {
		id := res.Job.Session.Entity.ID
		if res.Err != nil {
			failed++
			emit(Event{Type: "error", Entity: id, Error: res.Err.Error()})
			continue
		}
		fired := make([]string, len(res.Fired))
		for j, q := range res.Fired {
			fired[j] = string(q)
		}
		var pages []corpus.PageID
		for _, pg := range res.Job.Session.Pages() {
			pages = append(pages, pg.ID)
		}
		emit(Event{Type: "entity", Entity: id, Fired: fired, Pages: pages})
	}
	emit(Event{Type: "done", Entities: len(p.Entities), Failed: failed})
	return results
}
