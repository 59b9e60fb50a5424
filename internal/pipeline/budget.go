package pipeline

// Adaptive cross-entity budget allocation. The paper's premise is that
// queries are the cost unit (§I: every search-API call costs time, money
// and bandwidth), and Endrullis et al. (PAPERS.md) judge query generators
// on recall per query spent. A fixed per-entity budget ignores that
// signal: an entity whose collective recall R_E(Φ) has saturated keeps
// burning its remaining queries for nothing while a poorly-covered peer
// is starved. BudgetPolicy pools the batch's queries instead: the batch
// proceeds in rounds; each round, every still-hungry entity asks for one
// query, the pool ranks requests by the marginal ΔR_E(Φ) of each entity's
// last query, and grants while budget remains. The pool is ΣNQueries, the
// fixed mode's spend. An entity stops only when its collective recall
// R_E(Φ) reaches 1, its candidate pool runs dry, or it hits
// MaxPerEntity: its unspent share stays in the pool and flows to the
// highest-gain requesters of later rounds. R_E(Φ) is monotone, so a
// donated query can only add — adaptive is never worse than fixed-equal
// at the same spend by the model's own objective.
//
// The fixed-equal mode (the zero value) is the differential-parity
// reference: each job fires exactly Job.NQueries queries with no
// coordination, byte-identical to the one-shot Run path.

import (
	"cmp"
	"slices"

	"l2q/internal/core"
)

// BudgetMode selects how a batch's query budget is allocated.
type BudgetMode int

const (
	// BudgetFixed gives every job exactly its Job.NQueries queries —
	// today's batch behavior, held to differential parity with Run.
	BudgetFixed BudgetMode = iota
	// BudgetAdaptive pools the batch's queries and reallocates each
	// round toward the entities with the highest marginal ΔR_E(Φ).
	BudgetAdaptive
)

// BudgetPolicy tunes a batch's query-budget allocation. The zero value is
// fixed-equal allocation.
type BudgetPolicy struct {
	Mode BudgetMode
	// MaxPerEntity caps one entity's total queries in adaptive mode
	// (0 = unlimited): a fairness stop against one entity absorbing the
	// whole donated pool.
	MaxPerEntity int
}

// BatchOptions tunes one Submit call.
type BatchOptions struct {
	// Budget is the batch's allocation policy (zero value: fixed-equal).
	Budget BudgetPolicy
	// Checkpoint, when non-nil, receives the session's durable state
	// after every ingest (seed included), from the worker that owns the
	// job at that moment — the hook the server uses to persist in-flight
	// jobs. Calls for one job are serialized; calls for different jobs
	// are concurrent.
	Checkpoint func(job int, cp core.Checkpoint)
}

// budgetPool is the batch-scoped allocation state (guarded by the
// scheduler mutex).
type budgetPool struct {
	mode      BudgetMode
	remaining int // adaptive: unspent ΣNQueries
	maxPer    int
}

func newBudgetPool(p BudgetPolicy, jobs []Job) *budgetPool {
	bp := &budgetPool{mode: p.Mode, maxPer: p.MaxPerEntity}
	if bp.mode == BudgetAdaptive {
		for i := range jobs {
			bp.remaining += jobs[i].NQueries
		}
	}
	return bp
}

// Decisions of decideLocked.
const (
	decideGrant  = iota // run the selector and fire the next query
	decidePark          // wait for the round barrier's verdict
	decideFinish        // job is done (budget spent, saturated, or capped)
)

// decideLocked chooses a job's next move after an ingest.
// It reads the session, so only st's own goroutine calls it.
func (b *Batch) decideLocked(st *jobState) int {
	sess := st.job.Session
	n := len(sess.Fired()) - st.base
	if b.pool.mode != BudgetAdaptive {
		if n >= st.job.NQueries {
			return decideFinish
		}
		return decideGrant
	}
	// Collective recall complete — the §V estimate has saturated, so every
	// further query would gain exactly zero — or the entity's cap reached:
	// donate the rest.
	if sess.RPhi() >= 1 || (b.pool.maxPer > 0 && n >= b.pool.maxPer) {
		return decideFinish
	}
	return decidePark
}

// park waits, holding no slot, for the round barrier's verdict on st's
// request for one more query: false when the pool is spent.
func (b *Batch) park(st *jobState) (bool, error) {
	b.s.mu.Lock()
	st.stage = stageParked
	b.parked = append(b.parked, st)
	b.maybeReleaseLocked()
	b.s.mu.Unlock()
	select {
	case <-st.wake:
		return st.granted, nil
	case <-b.ctx.Done():
		return false, b.ctx.Err()
	}
}

// maybeReleaseLocked runs the round barrier: once every live job of an
// adaptive batch is parked, rank the requests by marginal ΔR_E(Φ) (ties
// by job index, so rounds are deterministic), grant one query each while
// budget remains, and wake them all; a job woken without a grant
// finishes. Fixed-mode batches never park, so this is a no-op for them.
func (b *Batch) maybeReleaseLocked() {
	if b.pool.mode != BudgetAdaptive || b.live == 0 {
		return
	}
	var ready []*jobState
	for _, st := range b.parked {
		if st.stage == stageParked {
			ready = append(ready, st)
		}
	}
	if len(ready) < b.live {
		return // some live job is still mid-cycle; the round is not over
	}
	b.parked = nil
	slices.SortFunc(ready, func(x, y *jobState) int {
		if c := cmp.Compare(y.lastGain, x.lastGain); c != 0 {
			return c
		}
		return cmp.Compare(x.index, y.index)
	})
	for k, st := range ready {
		st.stage = stageRunning
		if k < b.pool.remaining {
			st.granted = true
		}
		st.wake <- struct{}{}
	}
	b.pool.remaining -= min(len(ready), b.pool.remaining)
}
