# One recipe per check: .github/workflows/ci.yml runs these targets, so
# `make lint build test bench` locally is the same bar a PR has to clear.
# What a check is for is written here, beside its recipe.

GO ?= go

.PHONY: all build test test-procs fuzz-smoke soak bench bench-smoke bench-allocs wire-parity cluster-smoke examples lint vuln fmt loc

all: lint build test

build:
	$(GO) build ./...

# The webapi suite runs five shuffled passes: it is where order-dependent
# and interleaving-dependent tests have hidden before.
test:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -race -shuffle=on -count=5 ./internal/webapi/

# The packages whose fan-outs size themselves by GOMAXPROCS (par.For over
# aspects in classifier training, store's domain learner and eval's
# warm-up; over splits and entities in eval; the scheduler's select and
# fetch pools — under which sessions of every aspect share a System's term
# vocabulary and facts table — and, in webapi, the server's shared
# scheduler and the coordinator's scatter and page fan-out), and the
# shared state they lean on (the vocabulary, a page's term-id and n-gram
# memos), serial and oversubscribed: there is no worker count to set, so
# these two runs are how every fan-out is held to the serial values, and
# no test may depend on the box's core count.
TEST_PROCS_PKGS = ./internal/textproc/ ./internal/corpus/ ./internal/search/ ./internal/core/ ./internal/pipeline/ ./internal/webapi/ ./internal/classify/ ./internal/baselines/ ./internal/store/ ./internal/eval/
test-procs:
	GOMAXPROCS=1 $(GO) test -race -shuffle=on $(TEST_PROCS_PKGS)
	GOMAXPROCS=8 $(GO) test -race -shuffle=on $(TEST_PROCS_PKGS)

# Every fuzz target in the tree. 20 s of native fuzzing each on the
# scorer's exactness gate (the pruned top-k pass, its contender test
# included, must equal SearchReference — Dirichlet query likelihood, the
# one ranking function — bit for bit on random tiny corpora, queries
# stretched up to 64-fold, μ from 10⁻³ to 10⁹), on the search-with-pages
# decoder (frame, payload and page check between a response body and the
# client's page cache) and on the session's page bitsets (coverage must
# equal a Page.ContainsQuery recount; its inputs are programs of a
# kilobyte, so minimizing each new one is capped at 1 s instead of eating
# the budget); 10 s each on the tokenizer's three differential oracles
# (the ASCII split against the rune path, n-gram admissibility from
# per-token flags — and the session's term-id enumeration — and phrase
# merging through the first-word index against their per-gram and
# every-length references; small alphabets, so they saturate fast), on
# the round trip the id path rests on (every n-gram a lexicon tokenizer
# emits re-tokenizes to itself), on ingest-side HTML (ParsePage never
# panics on any bytes or truncation and gives back a rendered page's ID,
# entity and paragraph tokens; RenderPage writes the fmt reference's
# bytes), on the segmenter against its retained reference (any bytes:
# the same title, meta, paragraphs, attributes and links), on the ingest
# route's body, JSON or
# frame (never a panic; a 200 accounts for every decoded page, anything
# else changes nothing; minimizing capped at 1 s like the bitsets) and on
# the other live frame decoders — stats, search, page, ingest ack (never
# a panic, never past Dec.Count's guard, retired kinds 4–7 refused, what
# decodes round-trips through a frame, gzipped and not; its inputs hold a
# rendered page, so minimizing is capped at 1 s here too); and 10 s each,
# minimizing capped at 1 s (their inputs are whole files and stat pushes
# of tens of kilobytes), on the three file readers (store with and without
# a keep predicate, checkpoint, domain artifact: never a panic on any
# bytes, checksums repaired or not; what loads saves, and saving is a
# fixed point), on the registration push (POST /api/v1/cluster/stats:
# 200 exactly when ApplyGlobalStats' invariants hold, a refusal changes
# nothing), on a job's NDJSON stream as Client.StreamJob reads it (nil
# exactly when every line decodes and the last is "done", every event
# delivered in order), on the search routes' raw query strings (200 or
# the 400/501/503 envelope, have lists capped, each q and seed value one
# token at the engine); and 10 s on classifier training (TrainSet's one
# counting pass ≡ the per-aspect trainReference loop bit for bit on tiny
# corpora over small label and token alphabets).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzPrunedTopKMatchesReference -fuzztime 20s ./internal/search/
	$(GO) test -run '^$$' -fuzz FuzzSearchPagesFrame -fuzztime 20s ./internal/webapi/
	$(GO) test -run '^$$' -fuzz FuzzBitCoverMatchesContainment -fuzztime 20s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzSplitWordsParity -fuzztime 10s ./internal/textproc/
	$(GO) test -run '^$$' -fuzz FuzzNGramsMatchesReference -fuzztime 10s ./internal/textproc/
	$(GO) test -run '^$$' -fuzz FuzzLexiconMergeMatchesReference -fuzztime 10s ./internal/textproc/
	$(GO) test -run '^$$' -fuzz FuzzGramTokensRoundTrip -fuzztime 10s ./internal/textproc/
	$(GO) test -run '^$$' -fuzz FuzzParsePage -fuzztime 10s ./internal/html/
	$(GO) test -run '^$$' -fuzz FuzzParseMatchesReference -fuzztime 10s ./internal/html/
	$(GO) test -run '^$$' -fuzz FuzzIngestBody -fuzztime 10s -fuzzminimizetime 1s ./internal/webapi/
	$(GO) test -run '^$$' -fuzz FuzzFrameDecoders -fuzztime 10s -fuzzminimizetime 1s ./internal/webapi/
	$(GO) test -run '^$$' -fuzz FuzzStoreReaders -fuzztime 10s -fuzzminimizetime 1s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzClusterStatsPush -fuzztime 10s -fuzzminimizetime 1s ./internal/webapi/
	$(GO) test -run '^$$' -fuzz FuzzJobStream -fuzztime 10s -fuzzminimizetime 1s ./internal/webapi/
	$(GO) test -run '^$$' -fuzz FuzzSearchParams -fuzztime 10s -fuzzminimizetime 1s ./internal/webapi/
	$(GO) test -run '^$$' -fuzz FuzzTrainSetMatchesReference -fuzztime 10s ./internal/classify/

# 30 s churn loops under the race detector: scheduler submit/cancel/
# resume, and the live engine's concurrent ingest+search+compact.
soak:
	L2Q_SOAK=30s $(GO) test -race -run 'TestSchedulerSoak' ./internal/pipeline/
	L2Q_SOAK=30s $(GO) test -race -run 'TestLiveEngineSoak' ./internal/search/

# Compile and run every benchmark once, so perf code keeps building and
# stays exercisable on every PR. For the engine-vs-reference scoring
# numbers only:
#   go test -run='^$$' -bench='HotSingleQuery|ConcurrentManyQueries' -benchtime=2s ./internal/search/
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x ./...

# Real-process smoke of the harvest-and-serve benchmark (bench/): builds
# l2qserve and runs every workload against it frozen, live and as 3 nodes
# + coordinator, with the in-process oracles — the one check that
# exercises every server backend through the HTTP boundary, and that
# bench/sut.go still compiles against the program.
bench-smoke:
	L2Q_BENCH_SMOKE=1 $(GO) test -count=1 -run TestSmoke ./bench

# Allocation-regression gate: the hot-path alloc benchmarks against their
# pinned ceilings (0 allocs/op on the append paths). Writes
# BENCH_allocs.json, fails on any regression — same recipe as CI.
bench-allocs:
	./scripts/alloc_gate.sh BENCH_allocs.json

# Distributed-retrieval smoke: a real 3-node l2qserve fleet plus a
# coordinator as separate processes, driven over HTTP — search, page
# proxy, fan-out metrics, and node-kill failover with replicas=2.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Binary-wire differential parity + negotiation matrix under the race
# detector (the CI wire-parity step). Event streams are not in it: they
# are NDJSON only.
wire-parity:
	$(GO) test -race -count=1 -run 'TestDifferentialWireParity|TestNegotiationMatrix|TestMixedVersionFallback' ./internal/webapi/

# The examples compile against the public surface only; building all five
# keeps an API change from silently orphaning them. Four run end to end
# and exit non-zero on any break: quickstart, once per domain (domain
# phase, an L2QBAL harvest step by step, then the paper's contrast
# strategies on the same entity), httpharvest (fault-injected remote
# harvest ≡ in-process on both wire codecs, then a server-side batch —
# a job submitted, followed to its done line and deleted),
# jobsapi (async job killed mid-harvest + resumed == uninterrupted) and
# livecrawl (live index grown by a crawl ≡ frozen rebuild, bit for bit).
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart -domain researchers
	$(GO) run ./examples/quickstart -domain cars
	$(GO) run ./examples/httpharvest
	$(GO) run ./examples/jobsapi
	$(GO) run ./examples/livecrawl

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) build -o bin/l2qvet ./cmd/l2qvet
	$(GO) vet -vettool=$(CURDIR)/bin/l2qvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)); skipping — CI runs it"; \
	fi

# Known-vulnerability scan; graceful local skip, CI always runs it.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)); skipping — CI runs it"; \
	fi

# Pinned so local runs and the CI lint jobs agree.
STATICCHECK_VERSION = 2025.1.1
GOVULNCHECK_VERSION = v1.1.4

fmt:
	gofmt -w .

# Non-test Go lines per package by `wc -l` (comments and blanks included,
# bench/ excluded): the size figures ROADMAP and CHANGES quote; then the
# flag definitions per command and the counters ROADMAP tracks.
loc:
	@./scripts/loc.sh
