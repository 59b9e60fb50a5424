package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo is where and how a result was measured.
type envInfo struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Clients    int     `json:"clients"`
	WindowS    float64 `json:"window_s"`
	Load1      float64 `json:"load1_at_start"`
}

// sampleInfo states how many samples a timing metric rests on and, for a
// tail, which quantile that count supported.
type sampleInfo struct {
	N     int     `json:"n"`
	TailQ float64 `json:"tail_q,omitempty"`
}

// result is the full record of one run. Its correct, attempted, failed
// and metrics fields are also the last line of standard output, with the
// metrics restricted to the end-to-end set (--trace 0) or the per-layer
// set (--trace 1); the record itself always holds every metric the run
// measured.
type result struct {
	Workload  string                `json:"workload"`
	Seed      uint64                `json:"seed"`
	Trace     bool                  `json:"trace"`
	Env       envInfo               `json:"env"`
	InputHash string                `json:"input_hash"`
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Samples   map[string]sampleInfo `json:"samples"`
	Metrics   map[string]metric     `json:"metrics"`
	Notes     []string              `json:"notes,omitempty"`
}

func newResult(cfg config, load float64) *result {
	return &result{
		Workload: cfg.Workload,
		Seed:     cfg.Seed,
		Trace:    cfg.Trace,
		Env: envInfo{
			Nproc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     commit(),
			Clients:    cfg.Clients,
			WindowS:    cfg.Window.Seconds(),
			Load1:      load,
		},
		Correct: true,
		Samples: make(map[string]sampleInfo),
		Metrics: make(map[string]metric),
	}
}

// commit is the checkout's HEAD, or "unknown" outside a git work tree
// (the driver's checkouts are plain directories).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// set records the metrics of defs found in values; a metric the run did
// not produce (one that does not apply to the workload) reads 0.
func (r *result) set(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		r.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
}

// fail counts n failed operations and notes why.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += int64(n)
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// mismatch is a failed correctness sample: a failed operation that also
// makes the run incorrect.
func (r *result) mismatch(format string, args ...any) {
	r.Correct = false
	r.fail(1, format, args...)
}

// print writes every metric of defs by name with its unit, then the
// contract line: one JSON object with exactly correct, attempted, failed
// and metrics.
func (r *result) print(w io.Writer, defs []metricDef) error {
	fmt.Fprintf(w, "workload %s seed %d trace %v clients %d window %.1fs nproc %d gomaxprocs %d %s commit %s load1 %.2f inputs %s\n",
		r.Workload, r.Seed, r.Trace, r.Env.Clients, r.Env.WindowS, r.Env.Nproc, r.Env.GOMAXPROCS,
		r.Env.GoVersion, r.Env.Commit, r.Env.Load1, r.InputHash)
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m := r.Metrics[d.Name]
		out[d.Name] = m
		line := fmt.Sprintf("%-38s %14.4f %s", d.Name, m.Value, m.Unit)
		if s, ok := r.Samples[d.Name]; ok {
			line += fmt.Sprintf("  (n=%d", s.N)
			if s.TailQ != 0 {
				line += fmt.Sprintf(", p%g", s.TailQ*100)
			}
			line += ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// appendTo adds the full record to a file of concatenated JSON objects,
// the format `bench compare` reads.
func (r *result) appendTo(path string) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readResults decodes a file of concatenated JSON result objects.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	dec := json.NewDecoder(f)
	for {
		var r result
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
}
