package webapi

// Server-side harvesting: what a harvest request is (HarvestRequest, its
// validation into a plan, the pipeline jobs built from it) and what it
// reports (HarvestEvent). The sessions run next to the index on
// internal/pipeline's interleaved select/fetch scheduler; shipping the
// harvest to the data inverts the remote-client topology — one submission
// replaces the per-query request traffic of a client-side run, which is the
// right trade when the operator of the search API also runs the harvest
// (the ROADMAP's serving scenario). The one surface a harvest is submitted,
// followed and stopped through is the jobs API (jobs.go).
//
// Every harvest runs on the server's ONE shared pipeline.Scheduler instead
// of per-request worker pools: concurrent jobs queue FIFO (behind
// Server.MaxInFlight when that is set) and share the pools fairly instead
// of oversubscribing GOMAXPROCS² goroutines.

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"l2q/internal/baselines"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/pipeline"
	"l2q/internal/types"
)

// HarvestBackend supplies everything a server-side harvest needs beyond
// the server's retrieval backend: the L2Q configuration, the materialized
// relevance functions, the type system, and (typically lazily learned and
// cached) domain models. Assign it to the Harvest field of a NewServer
// server to enable the jobs API; a nil backend leaves it disabled (501).
type HarvestBackend struct {
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
	// nil model) harvests without domain awareness. Successful results
	// are memoized per aspect inside the backend, so the func may learn
	// from scratch on every call — it runs at most once per aspect
	// (errors are not cached; the next request retries).
	DomainModel func(corpus.Aspect) (*core.DomainModel, error)

	dmMu    sync.Mutex
	dmCache map[corpus.Aspect]*core.DomainModel
}

// maxHarvestEntities bounds a request's entities and maxHarvestQueries its
// per-entity query budget. Constants, not options, for maxHave's reason:
// together they bound the work one request can ask for (64 × 50
// searches), and no server, example or test ever ran with other values.
const (
	maxHarvestEntities = 64
	maxHarvestQueries  = 50
)

// Preload seeds the per-aspect domain-model cache with already-trained
// models (typically restored from a store.DomainArtifact), so the server
// serves its first harvest warm instead of learning each aspect's
// domain model from scratch. Preloaded aspects never invoke the
// DomainModel func; aspects absent from models still learn lazily.
func (hb *HarvestBackend) Preload(models map[corpus.Aspect]*core.DomainModel) {
	hb.dmMu.Lock()
	defer hb.dmMu.Unlock()
	if hb.dmCache == nil {
		hb.dmCache = make(map[corpus.Aspect]*core.DomainModel, len(models))
	}
	for a, dm := range models {
		if dm != nil {
			hb.dmCache[a] = dm
		}
	}
}

// domainModel memoizes DomainModel per aspect (see the field doc).
func (hb *HarvestBackend) domainModel(a corpus.Aspect) (*core.DomainModel, error) {
	hb.dmMu.Lock()
	defer hb.dmMu.Unlock()
	if dm, ok := hb.dmCache[a]; ok {
		return dm, nil
	}
	if hb.DomainModel == nil {
		return nil, nil
	}
	dm, err := hb.DomainModel(a)
	if err != nil {
		return nil, err
	}
	if hb.dmCache == nil {
		hb.dmCache = make(map[corpus.Aspect]*core.DomainModel)
	}
	hb.dmCache[a] = dm
	return dm, nil
}

func (hb *HarvestBackend) hasAspect(a corpus.Aspect) bool {
	for _, known := range hb.Aspects {
		if known == a {
			return true
		}
	}
	return false
}

// BudgetSpec is the wire form of pipeline.BudgetPolicy: how a request's
// query budget is allocated across its entities.
type BudgetSpec struct {
	// Mode is "fixed" (default: every entity fires exactly NQueries) or
	// "adaptive" (the batch pools NQueries×entities and reallocates each
	// round toward the highest marginal ΔR_E(Φ); saturated entities
	// donate their remainder).
	Mode string `json:"mode,omitempty"`
	// TotalQueries overrides the adaptive mode's pooled budget
	// (default: NQueries × entities).
	TotalQueries int `json:"totalQueries,omitempty"`
	// MinGain and Patience tune the saturation rule; MaxPerEntity caps
	// one entity's adaptive spend. Zero values pick the pipeline
	// defaults.
	MinGain      float64 `json:"minGain,omitempty"`
	Patience     int     `json:"patience,omitempty"`
	MaxPerEntity int     `json:"maxPerEntity,omitempty"`
}

func (bs *BudgetSpec) policy() (pipeline.BudgetPolicy, error) {
	if bs == nil {
		return pipeline.BudgetPolicy{}, nil
	}
	// The pipeline reads ≤ 0 as "unset"; a negative value on the wire is a
	// malformed request, not a request for the default.
	if bs.TotalQueries < 0 || bs.MinGain < 0 || bs.Patience < 0 || bs.MaxPerEntity < 0 {
		return pipeline.BudgetPolicy{}, fmt.Errorf("budget.totalQueries, minGain, patience and maxPerEntity must not be negative")
	}
	p := pipeline.BudgetPolicy{
		TotalQueries: bs.TotalQueries,
		MinGain:      bs.MinGain,
		Patience:     bs.Patience,
		MaxPerEntity: bs.MaxPerEntity,
	}
	switch strings.ToLower(bs.Mode) {
	case "", "fixed":
		p.Mode = pipeline.BudgetFixed
	case "adaptive":
		p.Mode = pipeline.BudgetAdaptive
	default:
		return p, fmt.Errorf("unknown budget mode %q (fixed or adaptive)", bs.Mode)
	}
	return p, nil
}

// HarvestRequest is the POST /api/v1/jobs body.
type HarvestRequest struct {
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

// HarvestEvent is one entry of a job's event log and one NDJSON line of
// its stream. Type discriminates: "progress" (one harvest iteration of one
// entity), "entity" (one entity finished, with its fired queries and
// gathered pages), "error" (one entity failed), and "done" (the batch
// summary, always the last line — a stream that ends without it was cut).
type HarvestEvent struct {
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

// harvestPlan is a validated harvest request: everything resolved except
// the sessions themselves.
type harvestPlan struct {
	aspect corpus.Aspect
	sel    core.Selector
	dm     *core.DomainModel
	y      func(*corpus.Page) bool
	budget pipeline.BudgetPolicy
	resume map[corpus.EntityID]core.Checkpoint
}

// plan validates a harvest request against the backend's limits and
// resolves strategy, domain model, budget policy and resume checkpoints.
func (hb *HarvestBackend) plan(req HarvestRequest) (*harvestPlan, *httpError) {
	if len(req.Entities) == 0 {
		return nil, httpErrorf(http.StatusBadRequest, "no entities requested")
	}
	if len(req.Entities) > maxHarvestEntities {
		return nil, httpErrorf(http.StatusBadRequest, "too many entities: %d > %d", len(req.Entities), maxHarvestEntities)
	}
	// An entity is one session with one resume state: a repeat would run
	// twice and overwrite its own checkpoints.
	requested := make(map[corpus.EntityID]bool, len(req.Entities))
	for _, id := range req.Entities {
		if requested[id] {
			return nil, httpErrorf(http.StatusBadRequest, "entity %d requested twice", id)
		}
		requested[id] = true
	}
	if req.NQueries < 0 || req.NQueries > maxHarvestQueries {
		return nil, httpErrorf(http.StatusBadRequest, "nQueries out of range [0, %d]", maxHarvestQueries)
	}
	aspect := corpus.Aspect(req.Aspect)
	if !hb.hasAspect(aspect) {
		return nil, httpErrorf(http.StatusBadRequest, "unknown aspect %q (serving %v)", req.Aspect, hb.Aspects)
	}
	strategy := req.Strategy
	if strategy == "" {
		strategy = "L2QBAL"
	}
	// A job runs the L2Q strategies only; the §VI-C baselines are
	// client-side concerns (HR needs a trained model no backend keeps).
	method, ok := baselines.LookupMethod(strategy)
	if !ok || method.Baseline {
		return nil, httpErrorf(http.StatusBadRequest, "unknown strategy %q", req.Strategy)
	}
	sel := method.New("", aspect, nil)
	budget, err := req.Budget.policy()
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "%s", err.Error())
	}
	if max := maxHarvestQueries * len(req.Entities); budget.TotalQueries > max {
		return nil, httpErrorf(http.StatusBadRequest, "budget.totalQueries out of range [0, %d]", max)
	}
	if budget.Mode == pipeline.BudgetAdaptive {
		// maxHarvestQueries is the per-entity bound; donation must not let
		// one entity absorb the whole pool past it.
		if budget.MaxPerEntity <= 0 || budget.MaxPerEntity > maxHarvestQueries {
			budget.MaxPerEntity = maxHarvestQueries
		}
	}
	p := &harvestPlan{aspect: aspect, sel: sel, budget: budget}
	if len(req.Resume) > 0 {
		p.resume = make(map[corpus.EntityID]core.Checkpoint, len(req.Resume))
		for _, cp := range req.Resume {
			switch _, dup := p.resume[cp.Entity]; {
			case cp.Aspect != aspect:
				return nil, httpErrorf(http.StatusBadRequest, "resume checkpoint for entity %d is for aspect %q, not %q", cp.Entity, cp.Aspect, aspect)
			case !requested[cp.Entity]:
				return nil, httpErrorf(http.StatusBadRequest, "resume checkpoint for entity %d, which the request does not harvest", cp.Entity)
			case dup:
				return nil, httpErrorf(http.StatusBadRequest, "two resume checkpoints for entity %d", cp.Entity)
			}
			p.resume[cp.Entity] = cp
		}
	}
	if !req.NoDomain {
		dm, err := hb.domainModel(aspect)
		if err != nil {
			return nil, httpErrorf(http.StatusInternalServerError, "domain model: %s", err.Error())
		}
		p.dm = dm
	}
	p.y = hb.Y(aspect)
	return p, nil
}

// buildJobs constructs one pipeline job per known entity of b, searching
// b's live engine (so a session follows the epochs) and resuming
// checkpointed sessions under ctx. Unknown IDs and failed resumes fail
// individually (an explicit per-entity error event), never the whole
// batch. The returned entity slice is aligned with the jobs.
func (hb *HarvestBackend) buildJobs(ctx context.Context, b *localBackend, req HarvestRequest, p *harvestPlan,
	emit func(HarvestEvent)) (jobs []pipeline.Job, jobEntities []*corpus.Entity, failed int) {

	for _, id := range req.Entities {
		e := b.entity(id)
		if e == nil {
			failed++
			emit(HarvestEvent{Type: "error", Entity: id, Error: fmt.Sprintf("unknown entity id %d", id)})
			continue
		}
		sess := core.NewSession(hb.Cfg, b.live, e, p.aspect, p.y, p.dm, hb.Rec, uint64(e.ID)+1)
		nq := req.NQueries
		if cp, ok := p.resume[e.ID]; ok {
			if err := sess.Resume(ctx, cp); err != nil {
				failed++
				emit(HarvestEvent{Type: "error", Entity: e.ID, Error: "resume: " + err.Error()})
				continue
			}
			nq -= len(cp.Fired)
			if nq < 0 {
				nq = 0
			}
		}
		entity := e.ID
		sess.Trace = func(tr core.TraceRecord) {
			emit(HarvestEvent{
				Type:       "progress",
				Entity:     entity,
				Iteration:  tr.Iteration,
				Query:      string(tr.Query),
				NewPages:   tr.NewPages,
				TotalPages: tr.TotalPages,
			})
		}
		jobs = append(jobs, pipeline.Job{Session: sess, Selector: p.sel, NQueries: nq})
		jobEntities = append(jobEntities, e)
	}
	return jobs, jobEntities, failed
}

// emitOutcomes closes a job's event log: one "entity" (fired queries,
// gathered pages) or "error" event per scheduler result, then the "done"
// summary over the requested entities. failed comes in as the entities
// buildJobs already reported and goes out as the summary's total.
func emitOutcomes(emit func(HarvestEvent), results []pipeline.Result, jobEntities []*corpus.Entity,
	requested, failed int) int {

	for i, res := range results {
		e := jobEntities[i]
		if res.Err != nil {
			failed++
			emit(HarvestEvent{Type: "error", Entity: e.ID, Error: res.Err.Error()})
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
		emit(HarvestEvent{Type: "entity", Entity: e.ID, Fired: fired, Pages: pages})
	}
	emit(HarvestEvent{Type: "done", Entities: requested, Failed: failed})
	return failed
}

// submitHarvest runs one batch on the server's shared scheduler and
// awaits it. A scheduler shut down mid-flight yields per-job errors.
func (s *Server) submitHarvest(ctx context.Context, jobs []pipeline.Job, opts pipeline.BatchOptions) []pipeline.Result {
	b, err := s.scheduler().Submit(ctx, jobs, opts)
	if err != nil {
		results := make([]pipeline.Result, len(jobs))
		for i := range jobs {
			results[i] = pipeline.Result{Job: &jobs[i], Err: err}
		}
		return results
	}
	return b.Await(ctx)
}
