// Command perfbench is prefetchlab's end-to-end benchmark. It drives the
// engine packages through their public functions in one process, on one
// goroutine, in a closed loop: each job round starts when the previous one
// has finished.
//
//	bash perfbench/run.sh --workload solo-sim --seed 1 --seconds 50 --trace 0
//
// Workloads are solo-sim, mix-sim and model-tiers (see README.md). With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it makes the
// separate traced run and prints the per-layer metrics, writing its spans
// as a Chrome trace_event file. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "solo-sim, mix-sim or model-tiers")
	seed := fs.Int64("seed", 1, "seeds the sampler, the mix draw and the input IDs")
	secs := fs.Float64("seconds", 50, "how long the job rounds are measured")
	trace := fs.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	chrome := fs.String("trace-out", "", "Chrome trace_event file of the traced run (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specFor(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seed < 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seed must be >= 0, --seconds > 0 and --trace 0 or 1")
		return 2
	}
	if *chrome == "" {
		*chrome = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", sp.name, *seed))
	}
	res, err := execute(sp, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1, *chrome, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	report(stderr, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// execute runs one workload at one seed, untraced or traced.
func execute(sp spec, seed int64, budget time.Duration, traced bool, chromePath string, log io.Writer) (result, error) {
	b := newBench(context.Background(), sp, seed, log)
	var metrics map[string]metric
	var err error
	if traced {
		metrics, err = b.perLayer(budget, chromePath)
	} else {
		metrics, err = b.measure(budget)
	}
	if err != nil {
		return result{}, err
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// report prints the metrics as a table for people reading the log.
func report(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
}
