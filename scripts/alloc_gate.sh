#!/bin/sh
# Allocation-regression gate: run the alloc benchmarks (-benchmem) and
# fail when any hot path allocates more per op than its pinned ceiling.
# The ceilings are the contract the zero-allocation refactor established:
# the append paths with reused buffers stay at 0 allocs/op, the
# convenience wrappers pay only their documented result-slice/fold costs.
#
# Writes one JSON line per benchmark to BENCH_allocs.json (or $1) — the
# CI artifact that trends allocs/op across PRs.
#
# Usage: scripts/alloc_gate.sh [out.json]
set -eu

OUT=${1:-BENCH_allocs.json}
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# -benchtime in iterations so allocs/op is a stable integer ratio, not a
# wall-clock-dependent sample.
go test -run '^$' \
	-bench 'BenchmarkTokenizeAllocs|BenchmarkNGramsAllocs|BenchmarkGramWindowsAllocs|BenchmarkSearchAllocs|BenchmarkLiveSearchAllocs|BenchmarkSearchAppendConcurrent|BenchmarkCandidateAllocs|BenchmarkSelectAllocs|BenchmarkHarvestJobAllocs|BenchmarkScatterMergeAllocs|BenchmarkCoordinatorFrontHitAllocs|BenchmarkMarshalFrameAllocs|BenchmarkOpenFrameAllocs|BenchmarkDecodeSearchPagesAllocs|BenchmarkParsePageAllocs|BenchmarkRenderPageAllocs|BenchmarkGenerateAllocs|BenchmarkDomainCountAllocs|BenchmarkRelevantAllocs' \
	-benchmem -benchtime=500x \
	./internal/textproc/ ./internal/search/ ./internal/core/ ./internal/webapi/ ./internal/html/ ./internal/synth/ ./internal/classify/ | tee "$RAW"

# bench-name (CPU suffix stripped) → max allocs/op.
ceiling() {
	case "$1" in
	BenchmarkTokenizeAllocs/append/lower) echo 0 ;;   # pure-ASCII LUT path, zero-copy tokens
	BenchmarkTokenizeAllocs/append/mixed) echo 8 ;;   # one ToLower string per capitalized token
	BenchmarkTokenizeAllocs/convenience) echo 14 ;;   # + the fresh result slice
	BenchmarkTokenizeAllocs/reference) echo 45 ;;     # pre-LUT baseline, kept for the ratio
	BenchmarkNGramsAllocs/append) echo 20 ;;          # only the multi-word gram strings emitted
	BenchmarkNGramsAllocs/convenience) echo 28 ;;     # + result slice growth and the dedup map
	BenchmarkGramWindowsAllocs) echo 0 ;;             # the id path's page enumeration: fixed-width keys into a reused buffer, flag scratch pooled
	BenchmarkSearchAllocs/cached/append) echo 0 ;;    # cache hit into a reused buffer
	BenchmarkSearchAllocs/cached) echo 1 ;;           # the fresh result slice
	BenchmarkSearchAllocs/nocache/append) echo 0 ;;   # one pruned pass on the caller's goroutine over pooled scratch; a fan-out costs a closure per worker
	BenchmarkLiveSearchAllocs/cached/append) echo 0 ;; # multi-segment cache hit into a reused buffer
	BenchmarkLiveSearchAllocs/cached) echo 1 ;;       # the fresh result slice
	BenchmarkLiveSearchAllocs/nocache/append) echo 0 ;; # multi-segment miss: a pruned pass per segment and the merge, all over pooled scratch
	BenchmarkSearchAppendConcurrent) echo 1 ;;        # contended pool refills round up
	BenchmarkCandidateAllocs/steady/append) echo 0 ;; # pool re-emits cached segments
	BenchmarkCandidateAllocs/steady) echo 1 ;;        # the fresh result slice, sized once from the pool
	BenchmarkSelectAllocs) echo 4 ;;                  # the Inference and its three Coll* vectors
	BenchmarkHarvestJobAllocs) echo 143 ;;            # a whole budget-5 L2QBAL job of one System, facts table and page term ids warm: the session's tables, one Inference per step; 1065 keyed by strings, re-enumerating every page per job (1126–1128 growing two string-keyed tables from empty; 10431 before the table-only session state)
	BenchmarkScatterMergeAllocs) echo 0 ;;            # coordinator K-way merge over pooled heap scratch
	BenchmarkCoordinatorFrontHitAllocs) echo 1 ;;     # a coordinator's front-cache hit: the copied hit list; the key lives on the stack, Query/Seed come with the entry
	BenchmarkMarshalFrameAllocs/page) echo 0 ;;       # a frame-memo hit: the stored frame, keyed on the stack; 1 (the frame itself) when every response was deflated again
	BenchmarkMarshalFrameAllocs/search5pages) echo 0 ;; # same for a search carrying its five pages: bodies go straight into the pooled encoder
	BenchmarkMarshalFrameAllocs/distinct/page) echo 2 ;; # a memo miss: the frame and its key string (the cache's slots and queues are allocated once; 4 with an LRU's list element and entry per insert); encoder, gzip writer and gzip buffer are pooled
	BenchmarkMarshalFrameAllocs/distinct/search5pages) echo 2 ;; # same for a five-page search
	BenchmarkOpenFrameAllocs/search5pages) echo 18 ;; # opening a gzipped five-page frame: the reader over the payload, the inflated payload sized once from the member's length trailer, and 16 Huffman link tables inside compress/flate; 23 when io.ReadAll grew the payload from 512 bytes
	BenchmarkDecodeSearchPagesAllocs/hit) echo 1 ;;   # a client's decode of a five-page search frame it has decoded before in its scope: the copied hit list; the memo key lives on the stack (237 when every frame was inflated and parsed again)
	BenchmarkDecodeSearchPagesAllocs/miss) echo 222 ;; # the decode the memo saves: the opened frame (18), the hit list and its strings, five parsed pages at ParsePage's 38 (not tokenized: a page tokenizes on its first read) and their URLs, the pages slice sized once, and the insert's key string (237 when ParsePage tokenized and grew each page's links; 239 with an LRU's list element and entry per insert)
	BenchmarkParsePageAllocs) echo 41 ;;              # a client's cost per downloaded page, Tokens() included: ParsePage's 38 (it keeps text only; the links slice sized once) and the first read's token array, paragraph ends and their holder. 137 when each paragraph had its own append-grown slice and Tokens() concatenated them, 97 with one exactly-sized array per page, 74 once whitespace-only and normalized text runs stopped being rebuilt, 41 with raw-text ends found in place, one reused attribute buffer and one-run paragraphs kept as substrings of the page
	BenchmarkRenderPageAllocs) echo 0 ;;              # a server's cost per served page: AppendPage into a reused buffer (RenderPage adds only its string; 24 allocs when it went through fmt)
	BenchmarkGenerateAllocs) echo 4187 ;;             # a TestConfig researcher collection (24 × 16 pages): per page its struct, one exactly-sized text string its paragraphs are substrings of, the paragraph slice, URL, title and links; per entity its profile. Measured 4186 at GOMAXPROCS 1–2 and 4187 at 4 and 8 (the runtime's per-P state adds a fraction per op). 17944 when every sentence was its own string, joined per paragraph, and slots went through fmt
	BenchmarkDomainCountAllocs) echo 29200 ;;         # the domain count over 12 × 16 untokenized pages: the kept queries' strings, tokens and template keys, the count's own vocabulary, the tables; pages keep nothing. It grows with GOMAXPROCS, most likely through the tokenizer's per-P pooled scratch: measured 29087–29088 at 1, 29090–29118 at 2 (29090 inside this gate's run), 29146–29150 at 4 and 29151–29157 at 8 (29 runs on 2 cores), so the ceiling sits a little above the many-P plateau. 28531 when the count read each page's memoized n-gram strings, already warm — the first count had tokenized every page and kept its tokens and n-grams
	BenchmarkRelevantAllocs/hit) echo 0 ;;            # a cached Y: one read-locked map lookup keyed on the stack
	BenchmarkRelevantAllocs/miss) echo 0 ;;           # the Naive Bayes page rule on a tokenized page: the paragraph walk's two closures live on the stack
	*) echo "" ;;
	esac
}

: >"$OUT"
fail=0
# go test -benchmem line: name iters ns "ns/op" [custom metrics] B "B/op"
# N "allocs/op" — each value is the field before its unit.
while read -r name _ ns rest; do
	prev= bytes= allocs=
	for f in $rest; do
		case "$f" in
		B/op) bytes=$prev ;;
		allocs/op) allocs=$prev ;;
		esac
		prev=$f
	done
	base=$(printf '%s' "$name" | sed 's/-[0-9][0-9]*$//')
	max=$(ceiling "$base")
	if [ -z "$max" ]; then
		echo "alloc_gate: $base has no pinned ceiling; add one to scripts/alloc_gate.sh" >&2
		fail=1
		continue
	fi
	ok=true
	if [ "$allocs" -gt "$max" ]; then
		ok=false
		fail=1
		echo "alloc_gate: FAIL $base: $allocs allocs/op exceeds ceiling $max" >&2
	fi
	printf '{"bench":"%s","ns_per_op":%s,"bytes_per_op":%s,"allocs_per_op":%s,"ceiling":%s,"ok":%s}\n' \
		"$base" "$ns" "$bytes" "$allocs" "$max" "$ok" >>"$OUT"
done <<EOF
$(grep '^Benchmark' "$RAW")
EOF

test -s "$OUT" || { echo "alloc_gate: no benchmark lines parsed" >&2; exit 1; }
cat "$OUT"
exit "$fail"
