// Package pipeline schedules many harvesting sessions so that CPU-bound
// query selection and I/O-bound page fetching overlap across entities.
//
// The paper's efficiency discussion (§VI-C) observes that per-query cost
// is dominated by the fetch (8–18 s against remote servers, vs 1–2 s of
// selection) and suggests the improvement implemented here: "parallelizing
// over entities, and interleaving the selection (CPU) and fetch (I/O)
// operations between different entities." Each job is one goroutine that
// takes its session's steps from top to bottom through the same three
// calls StepCtx makes — Session.Select, FetchQueryCtx, Session.Ingest; a
// select gate bounds how many selections run at once and a wider fetch
// gate bounds the downloads, so while entity A's download is in flight,
// entity B's selection runs. A session is only ever touched by its own
// job's goroutine.
//
// A Scheduler (see New/Submit/Close) serves many concurrent submitters
// over its lifetime with FIFO admission, per-batch fair share at both
// gates, and optional adaptive cross-entity budget allocation
// (BudgetPolicy); Run is a one-shot submit-and-await wrapper over a
// private Scheduler. The parity tests hold both to the sequential StepCtx
// run.
package pipeline

import (
	"runtime"

	"l2q/internal/core"
)

// Job is one entity-aspect harvest: a session, a selector, and a query
// budget. Fresh sessions start with the seed fetch; a session resumed
// from a checkpoint (core.Session.Resume) is picked up at the select
// stage. NQueries counts the queries fired under this scheduler — for a
// resumed session that is the budget remaining, not the overall total.
type Job struct {
	Session  *core.Session
	Selector core.Selector
	NQueries int
}

// Result is one finished (or aborted) job.
type Result struct {
	Job *Job
	// Fired is the suffix of the session's Φ fired under this scheduler,
	// in order; a job that never ran has none.
	Fired []core.Query
	// Err is non-nil when the job was cut short: context cancellation, or
	// a transport failure the session's retriever could not retry away
	// (remote engines surface *webapi.TransportError through the fetch
	// stage instead of silently recording an unproductive query).
	Err error
}

// Config tunes the scheduler. Zero values choose sensible defaults.
type Config struct {
	// SelectWorkers is the select gate's slot count: how many jobs may
	// ingest and select at once (CPU-bound; default GOMAXPROCS).
	SelectWorkers int
	// FetchWorkers is the fetch gate's slot count: how many jobs may
	// fetch at once (I/O-bound; default 4×SelectWorkers — fetches park on
	// the network, not the CPU).
	FetchWorkers int
	// MaxActive bounds the jobs admitted across all batches (admission
	// control for a shared server-side scheduler); 0 is unlimited. Jobs
	// beyond the bound wait in strict FIFO submission order.
	MaxActive int
}

func (c Config) withDefaults() Config {
	if c.SelectWorkers <= 0 {
		c.SelectWorkers = runtime.GOMAXPROCS(0)
	}
	if c.FetchWorkers <= 0 {
		c.FetchWorkers = 4 * c.SelectWorkers
	}
	return c
}
