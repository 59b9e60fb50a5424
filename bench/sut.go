package main

// sut.go is the benchmark's whole program-facing surface: every import of
// the system under test lives in this file, so a later change to the
// program has one place to look when the benchmark stops compiling.
//
// It uses the root l2q package (NewSyntheticSystem, System.LearnDomain /
// DialRemoteContext / NewRemoteHarvester / NewHarvester / Relevant /
// Engine, Harvester.RunCtx, the exported Session.Y and Session.Trace
// fields, the Selector interface, RemoteEngine.SearchWithSeedErr /
// PageCtx / Metrics / ServerMetrics / Ingest) — only ctx+error forms —
// plus, from internal packages, what the root package does not
// re-export: webapi's ingest request types, core's Selection and
// TraceRecord (to implement Selector and set Session.Trace), and the
// public functions the fixed-input probes time (search.MergeTopKAppend,
// html.ParsePage, textproc.NGrams).

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"l2q"
	"l2q/internal/core"
	"l2q/internal/html"
	"l2q/internal/search"
	"l2q/internal/textproc"
	"l2q/internal/webapi"
)

const (
	// harvestBudget is the number of selected queries per job (the seed
	// query is fired on top of it).
	harvestBudget = 5
	// prefetchWorkers is the one client option the benchmark sets: page
	// downloads of a hit list overlap two at a time (nproc is 2).
	prefetchWorkers = 2
	// donorIDOffset moves donor page and entity IDs out of the served
	// corpus's range, so every ingested page is new.
	donorIDOffset = 1_000_000
)

// remote is a dialed client of one l2qserve process.
type remote = l2q.RemoteEngine

// sut is the generator process's own copy of the system: the same
// synthetic corpus the servers generate from the same flags, its
// classifiers, its in-process engine (the oracle) and the domain models.
type sut struct {
	sys      *l2q.System
	entities []*l2q.Entity
	aspects  []l2q.Aspect
	models   map[l2q.Aspect]*l2q.DomainModel
	pageByID map[l2q.PageID]*l2q.Page
}

func newSUT(entities, pages int, seed uint64) (*sut, error) {
	sys, err := l2q.NewSyntheticSystem(l2q.Researchers, l2q.SystemOptions{
		NumEntities: entities, PagesPerEntity: pages, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	s := &sut{
		sys:      sys,
		entities: sys.Corpus().Entities,
		aspects:  sys.Aspects(),
		pageByID: make(map[l2q.PageID]*l2q.Page, sys.Corpus().NumPages()),
	}
	for _, p := range sys.Corpus().Pages {
		s.pageByID[p.ID] = p
	}
	return s, nil
}

func (s *sut) numPages() int { return s.sys.Corpus().NumPages() }

// learn runs the domain phase for every aspect over the first n entities.
// Idempotent: the models are learned once.
func (s *sut) learn(n int) error {
	if s.models != nil {
		return nil
	}
	ids := s.sys.EntityIDs()
	if n > len(ids) {
		n = len(ids)
	}
	models := make(map[l2q.Aspect]*l2q.DomainModel, len(s.aspects))
	for _, a := range s.aspects {
		dm, err := s.sys.LearnDomain(a, ids[:n])
		if err != nil {
			return fmt.Errorf("learn domain %s: %w", a, err)
		}
		models[a] = dm
	}
	s.models = models
	return nil
}

func (s *sut) dial(ctx context.Context, base string) (*remote, error) {
	return s.sys.DialRemoteContext(ctx, base, l2q.RemoteOptions{PrefetchWorkers: prefetchWorkers})
}

// clientCounters is a dialed client's own request accounting.
type clientCounters struct {
	Requests, Retries, Errors, PageFetches int64
}

func (c *clientCounters) add(re *remote) {
	m := re.Metrics()
	c.Requests += m.Requests
	c.Retries += m.Retries
	c.Errors += m.Errors
	c.PageFetches += m.PageFetches
}

// ---- search operations ----

// query is one search operation: an entity's seed ∥ a 1–3-token window of
// one of that entity's own pages.
type query struct {
	Seed  []string
	Terms []string
}

// hit is one ranked result, as compared by the oracle.
type hit struct {
	ID    int64
	Score float64
}

// queryPopulation builds the fixed population of distinct search queries:
// perEntity windows for every entity, drawn with the collection's own seed
// so the population belongs to the collection, not to a run.
func (s *sut) queryPopulation(perEntity int, collectionSeed uint64) []query {
	rng := rand.New(rand.NewPCG(collectionSeed, 0x9e3779b97f4a7c15))
	out := make([]query, 0, perEntity*len(s.entities))
	for _, e := range s.entities {
		pages := s.sys.Corpus().PagesOf(e.ID)
		if len(pages) == 0 {
			continue
		}
		seed := e.SeedTokens()
		seen := make(map[string]struct{}, perEntity)
		for k := 0; k < perEntity; k++ {
			// A few redraws keep the population close to distinct; a
			// rare leftover duplicate only makes one query slightly hotter.
			for try := 0; try < 4; try++ {
				toks := pages[rng.IntN(len(pages))].Tokens()
				if len(toks) == 0 {
					continue
				}
				n := min(1+rng.IntN(3), len(toks))
				start := rng.IntN(len(toks) - n + 1)
				terms := toks[start : start+n]
				key := strings.Join(terms, "\x00")
				if _, dup := seen[key]; dup && try < 3 {
					continue
				}
				seen[key] = struct{}{}
				out = append(out, query{Seed: seed, Terms: terms})
				break
			}
		}
	}
	return out
}

func toHits(res []search.Result) []hit {
	out := make([]hit, len(res))
	for i, r := range res {
		out[i] = hit{ID: int64(r.Page.ID), Score: r.Score}
	}
	return out
}

// searchRemote is one search operation: search, then download of every
// ranked page.
func (s *sut) searchRemote(ctx context.Context, re *remote, q query) ([]hit, error) {
	res, err := re.SearchWithSeedErr(ctx, q.Seed, q.Terms)
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		if r.Page == nil {
			return nil, fmt.Errorf("search returned a hit without its page")
		}
	}
	return toHits(res), nil
}

// searchLocal is the oracle: the same query on the in-process engine.
func (s *sut) searchLocal(q query) []hit {
	return toHits(s.sys.Engine().SearchWithSeed(q.Seed, q.Terms))
}

// downloadPage fetches one page and returns the ID the document carries.
func (s *sut) downloadPage(ctx context.Context, re *remote, id int64) (int64, error) {
	p, err := re.PageCtx(ctx, l2q.PageID(id))
	if err != nil {
		return 0, err
	}
	return int64(p.ID), nil
}

// ---- harvest operations ----

// job is one (entity, aspect) harvest at harvestBudget; both fields index
// into the corpus's entity and aspect lists.
type job struct {
	Entity int
	Aspect int
}

// harvested is what one harvest job gathered, as the session returns it.
type harvested struct {
	fired []l2q.Query
	pages []*l2q.Page
	dial  time.Duration
}

// outcome is a harvested job scored against the collection.
type outcome struct {
	Fired []string
	Pages []int64
	// Relevant counts gathered pages that belong to the job's entity and
	// are relevant to its aspect (System.Relevant); Universe is how many
	// such pages the corpus holds.
	Relevant int
	Universe int
}

// score judges a harvested job. It is kept out of the timed operation:
// the classifier calls here are the benchmark's, not the harvester's.
func (s *sut) score(j job, h harvested) outcome {
	e, a := s.entities[j.Entity], s.aspects[j.Aspect]
	o := outcome{Fired: make([]string, len(h.fired)), Pages: make([]int64, len(h.pages))}
	for i, q := range h.fired {
		o.Fired[i] = string(q)
	}
	for i, p := range h.pages {
		o.Pages[i] = int64(p.ID)
		// Relevance is judged on the collection's own copy of the page:
		// a page the collection does not hold (an ingested donor page)
		// is not the entity's.
		if lp := s.pageByID[p.ID]; lp != nil && lp.Entity == e.ID && s.sys.Relevant(a, lp) {
			o.Relevant++
		}
	}
	for _, p := range s.sys.Corpus().PagesOf(e.ID) {
		if s.sys.Relevant(a, p) {
			o.Universe++
		}
	}
	return o
}

// harvestRemote runs one job through the real boundary: fresh dial, new
// remote harvester, L2QBAL at harvestBudget. With a tracer it records a
// dial span, one step span per iteration with its select and candidates
// children, and one span per relevance-function call.
func (s *sut) harvestRemote(ctx context.Context, base string, j job, cc *clientCounters, tr *tracer) (harvested, error) {
	e, a := s.entities[j.Entity], s.aspects[j.Aspect]
	d := tr.begin("dial")
	t0 := time.Now()
	re, err := s.dial(ctx, base)
	dial := time.Since(t0)
	tr.end(d)
	if err != nil {
		return harvested{}, err
	}
	h := s.sys.NewRemoteHarvester(re, e, a, s.models[a])
	sel := l2q.NewL2QBAL()
	if tr != nil {
		ts := &tracedSelector{inner: sel, tr: tr, step: -1}
		sel = ts
		y := h.Y
		h.Y = func(p *l2q.Page) bool {
			id := tr.begin("y")
			rel := y(p)
			tr.end(id)
			return rel
		}
		h.Trace = func(core.TraceRecord) {
			tr.end(ts.step)
			ts.step = -1
		}
	}
	fired, err := h.RunCtx(ctx, sel, harvestBudget)
	cc.add(re)
	if err != nil {
		return harvested{}, err
	}
	return harvested{fired: fired, pages: h.Pages(), dial: dial}, nil
}

// harvestLocal is the oracle: the same job on the in-process engine.
func (s *sut) harvestLocal(ctx context.Context, j job) (harvested, error) {
	e, a := s.entities[j.Entity], s.aspects[j.Aspect]
	h := s.sys.NewHarvester(e, a, s.models[a])
	fired, err := h.RunCtx(ctx, l2q.NewL2QBAL(), harvestBudget)
	if err != nil {
		return harvested{}, err
	}
	return harvested{fired: fired, pages: h.Pages()}, nil
}

// tracedSelector is the one program interface the benchmark implements.
// It opens the step span (closed by the session's Trace callback, or here
// when the selector finds nothing), times CandidatesAppend on its own
// just before the real selection — which syncs the session's candidate
// pool, so what remains inside Select is graph inference — and wraps the
// real Select in a select span.
type tracedSelector struct {
	inner l2q.Selector
	tr    *tracer
	buf   []l2q.Query
	step  int
}

func (t *tracedSelector) Name() string { return t.inner.Name() }

func (t *tracedSelector) Select(s *l2q.Session) (core.Selection, bool) {
	t.step = t.tr.begin("step")
	sl := t.tr.begin("select")
	c := t.tr.begin("candidates")
	t.buf = s.CandidatesAppend(t.buf[:0], true)
	t.tr.setN(c, int64(len(t.buf)))
	t.tr.end(c)
	choice, ok := t.inner.Select(s)
	t.tr.end(sl)
	if !ok {
		t.tr.end(t.step)
		t.step = -1
	}
	return choice, ok
}

// ---- ingest ----

// donor is a second synthetic corpus whose pages the ingest stream posts
// to a live server.
type donor struct {
	pages []webapi.IngestPage
}

func newDonor(entities, pages int, seed uint64) (*donor, error) {
	sys, err := l2q.NewSyntheticSystem(l2q.Researchers, l2q.SystemOptions{
		NumEntities: entities, PagesPerEntity: pages, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	c := sys.Corpus()
	d := &donor{pages: make([]webapi.IngestPage, 0, c.NumPages())}
	for _, p := range c.Pages {
		e := c.Entity(p.Entity)
		ip := webapi.IngestPage{
			ID:         p.ID + donorIDOffset,
			Entity:     p.Entity + donorIDOffset,
			EntityName: e.Name,
			SeedQuery:  e.SeedQuery,
			URL:        p.URL,
			Title:      p.Title,
		}
		for _, para := range p.Paras {
			ip.Paras = append(ip.Paras, webapi.IngestParagraph{Text: para.Text, Aspect: string(para.Aspect)})
		}
		for _, l := range p.Links {
			ip.Links = append(ip.Links, l+donorIDOffset)
		}
		d.pages = append(d.pages, ip)
	}
	return d, nil
}

func (d *donor) len() int       { return len(d.pages) }
func (d *donor) id(i int) int64 { return int64(d.pages[i].ID) }

// ack is a live server's acknowledgement of one ingest batch.
type ack struct {
	Ingested, Duplicates, NumDocs int
}

// send posts donor pages [lo, hi) as one batch.
func (d *donor) send(ctx context.Context, re *remote, lo, hi int) (ack, error) {
	resp, err := re.Ingest(ctx, webapi.IngestRequest{Pages: d.pages[lo:hi]})
	if err != nil {
		return ack{}, err
	}
	return ack{Ingested: resp.Ingested, Duplicates: resp.Duplicates, NumDocs: resp.NumDocs}, nil
}

// ---- server metrics ----

// serverCounters is the part of GET /api/v1/metrics the benchmark reads.
type serverCounters struct {
	Requests     int64
	AllocObjects uint64
	AllocBytes   uint64
	GCPauseP99Ms float64
	HeapInuseMB  float64

	Live               bool
	LiveSegments       int
	LiveNumDocs        int
	LiveCompactions    int64
	LiveDocsCompacted  int64
	LiveInvalidations  int64
	Cluster            bool
	ClusterScatters    int64
	ClusterHedges      int64
	ClusterPartials    int64
	ClusterNodeErrors  int64
	ClusterNodeRetries int64
}

func readServerCounters(ctx context.Context, re *remote) (serverCounters, error) {
	m, err := re.ServerMetrics(ctx)
	if err != nil {
		return serverCounters{}, err
	}
	c := serverCounters{
		Requests:     m.Requests,
		AllocObjects: m.Runtime.AllocObjects,
		AllocBytes:   m.Runtime.AllocBytes,
		GCPauseP99Ms: m.Runtime.GCPauseP99Ms,
		HeapInuseMB:  float64(m.Runtime.HeapInuseBytes) / (1 << 20),
	}
	if m.Live != nil {
		c.Live = true
		c.LiveSegments = m.Live.Segments
		c.LiveNumDocs = m.Live.NumDocs
		c.LiveCompactions = m.Live.Compactions
		c.LiveDocsCompacted = m.Live.DocsCompacted
		c.LiveInvalidations = m.Live.EpochInvalidations
	}
	if m.Cluster != nil {
		c.Cluster = true
		c.ClusterScatters = m.Cluster.Scatters
		c.ClusterHedges = m.Cluster.Hedges
		c.ClusterPartials = m.Cluster.Partials
		for _, n := range m.Cluster.PerNode {
			c.ClusterNodeErrors += n.Errors
			c.ClusterNodeRetries += n.Client.Retries
		}
	}
	return c, nil
}

// ---- fixed-input probes ----

// timePer calls fn(i) for i = 0, 1, … until budget has elapsed (at least
// once) and returns the mean nanoseconds per call.
func timePer(budget time.Duration, fn func(i int)) float64 {
	start := time.Now()
	n := 0
	for {
		fn(n)
		n++
		// Reading the clock every call would dominate a 20 ns body.
		if n&63 == 0 || n < 64 {
			if time.Since(start) >= budget {
				break
			}
		}
	}
	return float64(time.Since(start)) / float64(n)
}

// probes times public functions of single layers on fixed inputs taken
// from the same collection: queries are the workload's population, ops
// its first replay operations.
func (s *sut) probes(queries []query, ops []uint32) map[string]float64 {
	const budget = 300 * time.Millisecond
	out := make(map[string]float64)
	pages := s.sys.Corpus().Pages

	t0 := time.Now()
	built := l2q.NewEngine(pages, l2q.EngineOptions{})
	out["search.index_build_s"] = time.Since(t0).Seconds()

	// Cost per miss varies a lot with the query's terms, so the miss
	// probe scores a fixed set — every len/256-th query, once each —
	// rather than however many fit a time budget.
	var res []search.Result
	miss := built.WithCache(-1)
	stride := max(len(queries)/256, 1)
	t0 = time.Now()
	n := 0
	for i := 0; i < len(queries); i += stride {
		res = miss.SearchWithSeedAppend(res[:0], queries[i].Seed, queries[i].Terms)
		n++
	}
	out["search.score_us_miss"] = float64(time.Since(t0)) / float64(n) / 1e3
	hot := built.WithCache(search.DefaultCacheSize)
	res = hot.SearchWithSeedAppend(res[:0], queries[0].Seed, queries[0].Terms)
	out["search.score_ns_hit"] = timePer(budget, func(int) {
		res = hot.SearchWithSeedAppend(res[:0], queries[0].Seed, queries[0].Terms)
	})
	replay := built.WithCache(search.DefaultCacheSize)
	for _, op := range ops {
		q := queries[op]
		res = replay.SearchWithSeedAppend(res[:0], q.Seed, q.Terms)
	}
	if hits, misses := replay.CacheStats(); hits+misses > 0 {
		out["search.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	// Three per-partition top-5 lists with interleaved scores, as a
	// coordinator over three nodes merges them.
	lists := make([][]search.RankedDoc, 3)
	for l := range lists {
		for r := 0; r < 5; r++ {
			lists[l] = append(lists[l], search.RankedDoc{Doc: int64(l*5 + r), Score: -float64(r*3 + l)})
		}
	}
	var merged []search.RankedDoc
	out["search.merge_topk_us"] = timePer(budget/3, func(int) {
		merged = search.MergeTopKAppend(merged[:0], 5, lists)
	}) / 1e3

	// Page-level probes run over one page of each of up to 256 entities.
	var sample []*l2q.Page
	for _, e := range s.entities {
		if ps := s.sys.Corpus().PagesOf(e.ID); len(ps) > 0 && len(sample) < 256 {
			sample = append(sample, ps[0])
		}
	}
	rendered := make([]string, len(sample))
	for i, p := range sample {
		rendered[i] = l2q.RenderPageHTML(p)
	}
	out["html.render_us_per_page"] = timePer(budget, func(i int) {
		rendered[i%len(sample)] = l2q.RenderPageHTML(sample[i%len(sample)])
	}) / 1e3
	tok := s.sys.Tokenizer()
	var parsed *l2q.Page
	out["html.parse_us_per_page"] = timePer(budget, func(i int) {
		parsed = html.ParsePage(rendered[i%len(sample)], -1, tok)
	}) / 1e3
	var toks []textproc.Token
	out["textproc.tokenize_us_per_page"] = timePer(budget, func(i int) {
		for _, para := range sample[i%len(sample)].Paras {
			toks = tok.AppendTokens(toks[:0], para.Text)
		}
	}) / 1e3
	cfg := textproc.DefaultNGramConfig()
	var grams []string
	out["textproc.ngrams_us_per_page"] = timePer(budget, func(i int) {
		grams = textproc.AppendNGrams(grams[:0], sample[i%len(sample)].Tokens(), cfg)
	}) / 1e3
	_, _, _, _ = parsed, toks, grams, merged
	return out
}
