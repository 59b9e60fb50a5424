package search

import (
	"context"
	"sync"
	"time"

	"l2q/internal/corpus"
)

// Fetcher models the I/O-bound "download result pages" step of the harvest
// loop. The paper's fetch step takes ~18 s/query for researchers and
// ~8 s/query for cars (Fig. 14) against remote servers; our corpus is in
// memory, so the Fetcher *accounts* the latency a remote fetch would cost
// without sleeping, letting cmd/l2qexp regenerate Fig. 14's comparison.
// A Fetcher is safe for concurrent use (the pipeline scheduler fetches for
// many entities at once).
type Fetcher struct {
	// PerPageLatency is the simulated cost of downloading one page.
	PerPageLatency time.Duration
	// Sleep, when true, actually blocks for the simulated time (off in
	// experiments; useful for demos).
	Sleep bool

	mu        sync.Mutex
	simulated time.Duration
	fetched   int
}

// ResearcherFetchLatency and CarFetchLatency are calibrated so that a
// 5-result query costs ~18 s and ~8 s respectively, matching Fig. 14.
const (
	ResearcherFetchLatency = 3600 * time.Millisecond
	CarFetchLatency        = 1600 * time.Millisecond
)

// NewFetcher returns a fetcher with the given simulated per-page latency.
func NewFetcher(perPage time.Duration) *Fetcher {
	return &Fetcher{PerPageLatency: perPage}
}

// FetchContext "downloads" the result pages, accounting simulated
// latency. A sleeping fetch (Sleep=true) wakes up when ctx is canceled
// and returns the context error, so a scheduler that parked a worker on a
// slow simulated download can reclaim it promptly. The latency accounting
// still records the full simulated cost — the download was started, which
// is what the paper's cost model charges for.
func (f *Fetcher) FetchContext(ctx context.Context, results []Result) ([]*corpus.Page, error) {
	cost := time.Duration(len(results)) * f.PerPageLatency
	f.mu.Lock()
	f.simulated += cost
	f.fetched += len(results)
	f.mu.Unlock()
	if f.Sleep && cost > 0 {
		t := time.NewTimer(cost)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	pages := make([]*corpus.Page, 0, len(results))
	for _, r := range results {
		pages = append(pages, r.Page)
	}
	return pages, nil
}

// SimulatedTime returns the total simulated fetch latency so far.
func (f *Fetcher) SimulatedTime() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.simulated
}

// PagesFetched returns the number of pages fetched so far.
func (f *Fetcher) PagesFetched() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fetched
}

// Reset clears the accounting counters.
func (f *Fetcher) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.simulated = 0
	f.fetched = 0
}
