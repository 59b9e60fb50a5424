package l2q

// This file is the public surface of the reproduction's extension systems:
// the CRF classifier family (the paper's actual classifiers), the HTTP
// search-API boundary with its server-side harvest jobs (run on the
// interleaved selection/fetch pipeline, §VI-C's efficiency suggestion),
// persistent corpus stores, and the link-following focused-crawler
// baseline (§II's contrast).

import (
	"context"
	"fmt"

	"l2q/internal/classify"
	"l2q/internal/core"
	"l2q/internal/corpus"
	"l2q/internal/crawler"
	"l2q/internal/harvest"
	"l2q/internal/html"
	"l2q/internal/search"
	"l2q/internal/store"
	"l2q/internal/textproc"
	"l2q/internal/webapi"
)

// Re-exported extension types.
type (
	// SearchServer serves a corpus + engine as an HTTP search API.
	SearchServer = webapi.Server
	// RemoteEngine is an HTTP client implementing the session Retriever.
	RemoteEngine = webapi.Client
	// Retriever is the engine surface sessions harvest through.
	Retriever = core.Retriever
	// Checkpoint is a session's durable state (Harvester's Snapshot and
	// Resume), so long-running harvests survive restarts by exact replay.
	Checkpoint = core.Checkpoint
	// RemoteOptions tunes a remote engine's transport (retry policy,
	// request timeout, wire codec).
	RemoteOptions = webapi.ClientOptions
	// Codec is the remote engine's wire-encoding preference
	// (CodecAuto, CodecJSON or CodecBinary).
	Codec = webapi.Codec
	// RetryPolicy controls the remote engine's retry/backoff behavior.
	RetryPolicy = webapi.RetryPolicy
	// TransportError is the typed failure of a remote API operation after
	// the retry budget is exhausted.
	TransportError = webapi.TransportError
	// RemoteMetrics snapshots a remote engine's request/retry/error
	// accounting.
	RemoteMetrics = webapi.ClientMetrics
	// FaultInjector wraps a handler with configurable transport faults
	// (500s, latency, truncated bodies) for resilience testing.
	FaultInjector = webapi.FaultInjector
	// HarvestBackend enables a SearchServer's jobs API (/api/v1/jobs), the
	// surface of server-side harvesting.
	HarvestBackend = harvest.Backend
	// HarvestRequest is the body a job is submitted with.
	HarvestRequest = harvest.Request
	// HarvestEvent is one entry of a job's event log, one NDJSON line of
	// its stream.
	HarvestEvent = harvest.Event
	// BudgetSpec is the wire form of the budget policy in a HarvestRequest.
	BudgetSpec = harvest.BudgetSpec
	// JobStatus is the jobs API's status payload.
	JobStatus = harvest.JobStatus
	// ServerMetrics is the GET /api/v1/metrics payload.
	ServerMetrics = webapi.ServerMetrics
)

// Async job states (JobStatus.State).
const (
	JobQueued   = harvest.JobQueued
	JobRunning  = harvest.JobRunning
	JobDone     = harvest.JobDone
	JobCanceled = harvest.JobCanceled
)

// Wire codec preferences (RemoteOptions.Codec).
const (
	CodecAuto   = webapi.CodecAuto
	CodecJSON   = webapi.CodecJSON
	CodecBinary = webapi.CodecBinary
)

// ParseCodec maps a flag value ("auto", "json", "binary") to a Codec.
func ParseCodec(s string) (Codec, error) { return webapi.ParseCodec(s) }

// Tokenizer returns the tokenizer the system's corpus was built with.
func (s *System) Tokenizer() *textproc.Tokenizer { return s.cfg.Tokenizer }

// UseCRFClassifiers retrains every aspect classifier as a binary linear-
// chain CRF over paragraph sequences — the classifier family the paper
// actually uses (§VI-A) — and swaps it in as the materialized Y; domain
// models learned under the old classifiers are dropped. Training
// is seconds-scale per aspect on paper-sized corpora; the default Naive
// Bayes family trains every aspect from one counting pass over the corpus
// (≈ 0.3 s for 996 × 50 pages on a 2-core machine), which is why it is the
// default.
func (s *System) UseCRFClassifiers() error {
	set := classify.TrainCRFSet(s.aspects, s.corpus.Pages)
	for _, a := range s.aspects {
		if !set.Has(a) {
			return fmt.Errorf("l2q: aspect %s has no CRF training signal", a)
		}
	}
	s.domainMu.Lock()
	s.cls, s.domain = set, nil
	s.domainMu.Unlock()
	return nil
}

// ClassifierAccuracy reports the active classifier's paragraph-level
// accuracy for an aspect over the given pages (generator labels as truth;
// the Fig. 9 metric).
func (s *System) ClassifierAccuracy(a Aspect, pages []*Page) float64 {
	return s.cls.AccuracyOf(a, pages)
}

// NewSearchServer exposes the system's corpus as a read-only HTTP search
// API (JSON search + rendered HTML pages), served by a live engine booted
// over the system engine's index — so it ranks exactly as the system
// engine does — with the server-side batch-harvest endpoint enabled over
// the system's classifiers and lazily-learned domain models. Start it with
// (*SearchServer).Start and point remote harvesters at it with
// DialRemoteContext.
func (s *System) NewSearchServer() *SearchServer {
	live := search.NewLiveEngine(s.engine.Index(), search.Options{}, search.LiveOptions{TopK: s.engine.TopK()})
	srv := webapi.NewServer(s.corpus, live, nil)
	srv.Harvest = s.HarvestBackend()
	return srv
}

// HarvestBackend wires the system into a harvest.Backend: aspect
// classifiers materialize Y, and each aspect's domain model is learned on
// first use over a first-half domain sample the backend owns (the
// protocol of store.DomainLearner and cmd/l2qharvest), apart from
// LearnDomain's.
func (s *System) HarvestBackend() *HarvestBackend {
	ids := s.EntityIDs()
	ds, err := core.NewDomainSample(s.cfg, s.corpus, ids[:len(ids)/2], s.cls.YFunc, s.rec)
	return &HarvestBackend{
		Cfg:     s.cfg,
		Aspects: s.Aspects(),
		Y:       s.cls.YFunc,
		Rec:     s.rec,
		DomainModel: func(a Aspect) (*DomainModel, error) {
			if err != nil {
				return nil, err
			}
			return ds.Model(a), nil
		},
	}
}

// DialRemoteContext connects to a search API served by NewSearchServer
// (possibly in another process) using this system's tokenizer, returning
// an engine that harvesting sessions can use in place of the in-process
// one — or a cluster's coordinator server, which makes the engine the
// cluster's retriever. ctx bounds the dial probe; opts tunes the transport
// (retry policy, per-request timeout, wire codec), which retries transient
// faults by default.
func (s *System) DialRemoteContext(ctx context.Context, base string, opts RemoteOptions) (*RemoteEngine, error) {
	return webapi.DialContext(ctx, base, s.cfg.Tokenizer, opts)
}

// NewRemoteHarvester starts a harvesting session that searches and
// downloads through the remote engine instead of the in-process index.
// Selection behavior is identical (the remote client returns the
// engine's ranked lists and pages exactly); only the transport differs.
func (s *System) NewRemoteHarvester(re *RemoteEngine, e *Entity, a Aspect, dm *DomainModel) *Harvester {
	return core.NewSession(s.cfg, re, e, a, s.cls.YFunc(a), dm, s.rec, 1)
}

// SaveStore persists the corpus and its inverted index to a checksummed
// binary file readable by LoadStore, cmd/l2qserve and cmd/l2qstore.
func (s *System) SaveStore(path string) error {
	return store.SaveFile(path, s.corpus, s.engine.Index())
}

// StoreBundle is a loaded store file: a corpus and (optionally) its index.
type StoreBundle = store.Bundle

// LoadStore reads a store file written by SaveStore or cmd/l2qstore.
func LoadStore(path string) (*StoreBundle, error) { return store.LoadFile(path, nil) }

// DomainArtifact is a persisted bundle of trained domain models and
// aspect classifiers — the domain phase's output as a durable file
// (magic L2QDOM1), so servers boot warm instead of re-learning per
// aspect on first request. Produce with `l2qstore domains`; consume
// with LoadDomainsFile or `l2qserve -domains`.
type DomainArtifact = store.DomainArtifact

// SaveDomainsFile writes a domain artifact durably; LoadDomainsFile
// reads one back. Float parameters round-trip exactly, so a restored
// model selects byte-identically to the freshly learned one.
var (
	SaveDomainsFile = store.SaveDomainsFile
	LoadDomainsFile = store.LoadDomainsFile
)

// Crawl runs the link-following focused-crawler baseline for an entity
// aspect: seeds from the entity's seed query, best-first frontier ordered
// by parent-page relevance, budget in page downloads. It exists to
// reproduce the paper's §II contrast — compare its harvest against a
// Harvester's at the same budget (see cmd/l2qexp -fig crawl).
func (s *System) Crawl(e *Entity, a Aspect, budget int) CrawlResult {
	res := s.engine.SearchWithSeed(e.SeedTokens(), nil)
	seeds := make([]*corpus.Page, 0, len(res))
	for _, r := range res {
		seeds = append(seeds, r.Page)
	}
	return crawler.Crawl(crawler.PageIndex(s.corpus), seeds, s.cls.YFunc(a),
		crawler.Config{Budget: budget})
}

// RenderPageHTML renders one corpus page as a standalone HTML document
// (the form pages travel in over the HTTP boundary).
func RenderPageHTML(p *Page) string { return html.RenderPage(p) }
