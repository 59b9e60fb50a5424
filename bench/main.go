// Command bench is the repository's harvest-and-serve benchmark: it
// builds cmd/l2qserve, runs it as real processes (frozen, -live, or three
// nodes behind a -coordinator), drives it from this one generator process
// with one closed-loop client, checks the outputs against in-process
// oracles, and prints every metric BENCHMARK.json names with its unit.
// It measures each layer from outside only. See README.md.
//
// Usage (from the repository root):
//
//	go run ./bench --workload search_frozen --seed 1 --seconds 10 --trace 0
//	go run ./bench compare A.json B.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// processStart approximates process start: package variables initialise
// before main runs.
var processStart = time.Now()

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], os.Stdout)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "harvest_remote, search_frozen, search_cluster3 or (not in BENCHMARK.json) search_live_ingest")
	seed := fs.Uint64("seed", 2016, "what the run samples from the fixed collection: op order, Zipf draws, job order")
	seconds := fs.Int("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from counters, a traced one-client slice and fixed-input probes")
	out := fs.String("out", "", "also append the full result record to this file (the input of `bench compare`)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := paperScale()
	cfg.Workload, cfg.Seed, cfg.Trace = *workload, *seed, *trace != 0
	cfg.Window = time.Duration(*seconds) * time.Second
	known := false
	for _, w := range append(workloads[:len(workloads):len(workloads)], ungated...) {
		known = known || w.Name == cfg.Workload
	}
	if !known || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: need --workload (one of those in BENCHMARK.json, or search_live_ingest) and --seconds ≥ 1")
		fs.Usage()
		return 2
	}

	// SIGINT and SIGTERM cancel the run; the deferred fleet stop then
	// kills and reaps every child before the process exits.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	res, err := measure(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	if *out != "" {
		if err := res.appendTo(*out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if err := res.print(os.Stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// measure builds the server into a scratch directory inside the checkout,
// runs the workload, and removes the directory (binary and server logs)
// unless the run failed.
func measure(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	bin, buildTime, err := buildServer(ctx, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	res, err := runWorkload(ctx, cfg, bin, dir, processStart, buildTime)
	if err != nil && ctx.Err() == nil {
		return nil, fmt.Errorf("%w (server logs kept in %s)", err, dir)
	}
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	return res, err
}
