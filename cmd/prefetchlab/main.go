// Command prefetchlab regenerates the tables and figures of "A Case for
// Resource Efficient Prefetching in Multicores" (ICPP 2014) on the
// simulated substrate.
//
// Usage:
//
//	prefetchlab [flags] <experiment> [experiment...]
//
// Experiments: table1, fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10,
// fig11, fig12, statcov, ablation-combined, ablation-l2, ablation-throttle,
// ablation-window, analytic, analytic-validate, all.
//
// Tooling commands:
//
//	list                         describe the available benchmarks
//	disasm <bench>               print a benchmark's program listing
//	profile <bench> <out.json>   run the sampling pass and save the profile
//	analyze <in.json> <machine>  load a profile and print the prefetch plan
//	                             (machine: amd or intel)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"prefetchlab/internal/atomicio"
	"prefetchlab/internal/ckpt"
	"prefetchlab/internal/core"
	"prefetchlab/internal/experiments"
	"prefetchlab/internal/faultinject"
	"prefetchlab/internal/isa"
	"prefetchlab/internal/machine"
	"prefetchlab/internal/obs"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/sampler"
	"prefetchlab/internal/sched"
	"prefetchlab/internal/workloads"
)

func main() {
	os.Exit(appMain(os.Args[1:], os.Stdout, os.Stderr))
}

// ForcedExitCode is the distinct exit code for a second SIGINT/SIGTERM
// delivered while the first is still draining: the run is abandoned
// immediately instead of waiting on a stuck task.
const ForcedExitCode = 3

// forceExit is os.Exit behind a seam so the force-exit path is visible to
// tests (which exercise it through a helper subprocess).
var forceExit = os.Exit

// appMain is the whole CLI behind an injectable argv and output streams, so
// tests can drive it end to end; it returns the process exit code.
func appMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prefetchlab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale   = fs.Float64("scale", 1.0, "workload iteration scale (1.0 = default run lengths)")
		mixes   = fs.Int("mixes", 45, "number of random 4-app mixes for fig7-fig11 (paper: 180)")
		seed    = fs.Int64("seed", 42, "random seed for mixes and inputs")
		period  = fs.Int64("period", 4096, "mean references between profile samples")
		workers = fs.Int("workers", 0, "experiment engine workers (0 = all CPUs, 1 = serial; results are identical at any setting)")
		benches = fs.String("benches", "", "comma-separated benchmark subset for the single-thread studies (default: all)")
		tier    = fs.String("tier", "sim", "prediction tier: sim (cycle-level simulator), analytic (MRC-only model) or static (zero-execution IR analysis); non-sim tiers run only tier-capable experiments")
		verbose = fs.Bool("v", false, "print per-step progress")

		statsJSON  = fs.String("stats-json", "", "write per-task machine-stats snapshots (caches, prefetchers, DRAM) to this JSON file; identical at any -workers setting")
		traceOut   = fs.String("trace", "", "write a Chrome trace_event JSON of engine tasks and caches to this file (open in Perfetto or chrome://tracing)")
		cpuprofile = fs.String("cpuprofile", "", "write an engine CPU profile (pprof) to this file")
		memprofile = fs.String("memprofile", "", "write an engine heap profile (pprof) to this file")
		progress   = fs.Bool("progress", false, "print a live tasks-done/ETA ticker to stderr")

		timeout    = fs.Duration("timeout", 0, "overall wall-clock budget; on expiry the engine drains in-flight tasks and exits cleanly (0 = none)")
		checkpoint = fs.String("checkpoint", "", "append each completed task result to this file and replay verified records on restart; a resumed run produces byte-identical output")
		faults     = fs.String("faults", "", "inject deterministic task faults for chaos testing, e.g. panic=0.05,error=0.05,latency=0.01,corrupt=0.01,seed=1")
		retries    = fs.Int("retries", 0, "extra attempts per failing engine task (deterministic, task-keyed backoff)")
		budget     = fs.Int("failure-budget", 0, "failed cells absorbed per batch as explicit skips (-1 = unlimited, 0 = fail fast; defaults to -1 when -faults is set)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	budgetSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "failure-budget" {
			budgetSet = true
		}
	})
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	if !experiments.ValidTier(*tier) {
		fmt.Fprintf(stderr, "prefetchlab: unknown tier %q (want %s)\n",
			*tier, strings.Join(experiments.Tiers(), " or "))
		return 2
	}
	var benchList []string
	if *benches != "" {
		benchList = strings.Split(*benches, ",")
	}
	args := fs.Args()
	switch args[0] {
	case "list":
		listWorkloads(stdout)
		return 0
	case "profile":
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: prefetchlab profile <bench> <out.json>")
			return 2
		}
		if err := profileCmd(stdout, args[1], args[2], *scale, *period, *seed); err != nil {
			fmt.Fprintf(stderr, "prefetchlab: %v\n", err)
			return 1
		}
		return 0
	case "disasm":
		if len(args) != 2 {
			fmt.Fprintln(stderr, "usage: prefetchlab disasm <bench>")
			return 2
		}
		spec, err := workloads.ByName(args[1])
		if err != nil {
			fmt.Fprintf(stderr, "prefetchlab: %v\n", err)
			return 1
		}
		prog, err := spec.Build(workloads.Input{ID: 0, Scale: *scale})
		if err != nil {
			fmt.Fprintf(stderr, "prefetchlab: %v\n", err)
			return 1
		}
		if err := isa.Disasm(stdout, prog); err != nil {
			fmt.Fprintf(stderr, "prefetchlab: %v\n", err)
			return 1
		}
		return 0
	case "analyze":
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: prefetchlab analyze <profile.json> <amd|intel>")
			return 2
		}
		if err := analyzeCmd(stdout, args[1], args[2], *scale); err != nil {
			fmt.Fprintf(stderr, "prefetchlab: %v\n", err)
			return 1
		}
		return 0
	}
	if len(args) == 1 && args[0] == "all" {
		args = experiments.Names()
	}

	// Cancellation: SIGINT/SIGTERM and the optional -timeout budget both
	// cancel the run context; the engine drains in-flight tasks and the
	// deterministic prefix of completed work is flushed below. A second
	// signal while draining forces immediate exit with ForcedExitCode, so a
	// stuck task can never hold the process hostage.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	runDone := make(chan struct{})
	defer close(runDone)
	go func() {
		select {
		case <-sigCh:
			cancel()
		case <-runDone:
			return
		}
		select {
		case <-sigCh:
			fmt.Fprintln(stderr, "prefetchlab: second signal while draining: forcing exit")
			forceExit(ForcedExitCode)
		case <-runDone:
		}
	}()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Fault injection is opt-in chaos testing; when enabled, batches absorb
	// failures as explicit skips by default instead of failing fast.
	var fault sched.FaultHook
	var inj *faultinject.Injector
	if *faults != "" {
		spec, err := faultinject.Parse(*faults)
		if err != nil {
			fmt.Fprintf(stderr, "prefetchlab: %v\n", err)
			return 2
		}
		inj = faultinject.New(spec)
		fault = inj
		if !budgetSet {
			*budget = -1
		}
	}

	// Observability is assembled only when asked for; a nil *obs.Obs keeps
	// every hook in the engine inert, so default runs are untouched. A
	// checkpoint needs the stats registry even without -stats-json, so that
	// replayed tasks restore their recorded snapshots.
	var o *obs.Obs
	if *statsJSON != "" || *traceOut != "" || *progress || *checkpoint != "" {
		o = &obs.Obs{}
		if *statsJSON != "" || *checkpoint != "" {
			o.Stats = obs.NewStats()
		}
		if *traceOut != "" {
			o.Trace = obs.NewTracer()
		}
		if *progress {
			o.Progress = obs.NewProgress(stderr)
		}
	}

	// The checkpoint fingerprint covers every option that changes task
	// results — but not -workers, -timeout, -retries or -faults, which only
	// change scheduling: a run interrupted at one worker count may resume at
	// another and still produce byte-identical output.
	baseOpts := experiments.Options{
		Scale: *scale, Mixes: *mixes, Seed: *seed, SamplerPeriod: *period,
		Workers: *workers, Benches: benchList, Tier: *tier,
	}.Normalized()
	var cp *ckpt.File
	var save sched.Saver
	if *checkpoint != "" {
		var err error
		cp, err = ckpt.Open(*checkpoint, baseOpts.Fingerprint())
		if err != nil {
			fmt.Fprintf(stderr, "prefetchlab: checkpoint: %v\n", err)
			return 1
		}
		defer cp.Close()
		save = cp.Tasks()
		// Restore stats snapshots captured before the interruption, then
		// persist every new one as it is recorded.
		cp.Each("stat", func(key string, index int, data []byte) {
			if snap, err := obs.DecodeSnapshot(data); err == nil {
				o.Stats.Record(key, snap)
			}
		})
		o.Stats.Persist = func(key string, data []byte) {
			cp.Append("stat", key, 0, data)
		}
	}

	stopProf, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "prefetchlab: %v\n", err)
		return 1
	}
	runOpts := baseOpts
	runOpts.Out = stdout
	runOpts.Verbose = *verbose
	runOpts.Obs = o
	runOpts.Retries = *retries
	runOpts.FailureBudget = *budget
	runOpts.Fault = fault
	runOpts.Save = save
	s := experiments.NewSession(runOpts)

	code := 0
	canceled := false
	for _, name := range args {
		t0 := time.Now()
		done := o.Span("experiment", name, nil)
		err := experiments.Run(ctx, s, name)
		done()
		if err != nil {
			if experiments.IsCancellation(err) {
				fmt.Fprintf(stderr, "prefetchlab: %s: run canceled: %v\n", name, err)
				canceled = true
			} else {
				fmt.Fprintf(stderr, "prefetchlab: %s: %v\n", name, err)
			}
			code = 1
			break
		}
		if *verbose {
			fmt.Fprintf(stdout, "# %s done in %s\n", name, time.Since(t0).Round(time.Millisecond))
		}
		fmt.Fprintln(stdout)
	}

	// Flush observability outputs even when an experiment failed: a partial
	// stats file or trace is exactly what debugging that failure needs.
	o.StopProgress()
	if err := stopProf(); err != nil {
		fmt.Fprintf(stderr, "prefetchlab: %v\n", err)
		code = 1
	}
	if o != nil && o.Stats != nil && *statsJSON != "" {
		// Fold engine fault tallies into the stats export. Fault-free runs set
		// nothing, so their files stay byte-identical to earlier releases.
		o.PublishFaults()
		if err := writeObsFile(*statsJSON, o.Stats.WriteJSON); err != nil {
			fmt.Fprintf(stderr, "prefetchlab: %v\n", err)
			code = 1
		} else if *verbose {
			fmt.Fprintf(stdout, "# wrote %d stats snapshots to %s\n", o.Stats.Len(), *statsJSON)
		}
	}
	if o != nil && o.Trace != nil {
		if err := writeObsFile(*traceOut, o.Trace.WriteJSON); err != nil {
			fmt.Fprintf(stderr, "prefetchlab: %v\n", err)
			code = 1
		} else if *verbose {
			fmt.Fprintf(stdout, "# wrote %d trace events to %s\n", o.Trace.Len(), *traceOut)
		}
	}
	// Fault and checkpoint accounting goes to stderr only: stdout carries the
	// figures and must stay byte-identical across runs and resumes.
	if inj != nil {
		fmt.Fprintf(stderr, "# faults: %s\n", inj)
	}
	if sum := o.FaultSummary(); sum != "" {
		fmt.Fprintf(stderr, "# engine: %s\n", sum)
	}
	if cp != nil {
		if *verbose || canceled {
			fmt.Fprintf(stderr, "# checkpoint: replayed %d record(s), appended %d to %s\n",
				cp.Replayed(), cp.Appended(), *checkpoint)
		}
		if err := cp.Close(); err != nil {
			fmt.Fprintf(stderr, "prefetchlab: checkpoint: %v\n", err)
			code = 1
		}
	}
	return code
}

// writeObsFile writes one observability export to path atomically, so a
// crash mid-write never leaves a truncated artifact behind.
func writeObsFile(path string, write func(io.Writer) error) error {
	return atomicio.WriteFile(path, write)
}

// listWorkloads prints the benchmark registry.
func listWorkloads(w io.Writer) {
	fmt.Fprintln(w, "Table I benchmarks:")
	for _, name := range workloads.Names() {
		spec, _ := workloads.ByName(name)
		fmt.Fprintf(w, "  %-12s %s\n", spec.Name, spec.Desc)
	}
	fmt.Fprintln(w, "Parallel workloads (fig12):")
	for _, spec := range workloads.Parallel() {
		mark := " "
		if spec.HighBandwidth {
			mark = "*"
		}
		fmt.Fprintf(w, "  %-12s %s%s\n", spec.Name, mark, spec.Desc)
	}
}

// profileCmd samples a benchmark and writes the profile to a JSON file.
func profileCmd(w io.Writer, bench, out string, scale float64, period, seed int64) error {
	spec, err := workloads.ByName(bench)
	if err != nil {
		return err
	}
	prog, err := spec.Build(workloads.Input{ID: 0, Scale: scale})
	if err != nil {
		return err
	}
	c, err := isa.Compile(prog)
	if err != nil {
		return err
	}
	s := sampler.New(sampler.Config{Period: period, Seed: seed})
	refs := isa.Trace(c, s)
	samples := s.Finish()
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pipeline.WriteProfile(f, bench, samples); err != nil {
		return err
	}
	fmt.Fprintf(w, "profiled %s: %d refs, %d reuse + %d stride + %d cold samples → %s\n",
		bench, refs, len(samples.Reuse), len(samples.Strides), len(samples.Cold), out)
	return nil
}

// analyzeCmd loads a profile and prints the prefetch plan for a machine.
func analyzeCmd(w io.Writer, in, machName string, scale float64) error {
	var mach machine.Machine
	switch machName {
	case "amd":
		mach = machine.AMDPhenomII()
	case "intel":
		mach = machine.IntelSandyBridge()
	default:
		return fmt.Errorf("unknown machine %q (want amd or intel)", machName)
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	bench, samples, model, err := pipeline.ReadProfile(f)
	if err != nil {
		return err
	}
	spec, err := workloads.ByName(bench)
	if err != nil {
		return err
	}
	prog, err := spec.Build(workloads.Input{ID: 0, Scale: scale})
	if err != nil {
		return err
	}
	c, err := isa.Compile(prog)
	if err != nil {
		return err
	}
	params := core.DefaultParams(mach.L1.Size, mach.L2.Size, mach.LLC.Size,
		mach.L2Lat, mach.LLCLat, mach.DRAM.ServiceLat+mach.LLCLat+14)
	plan := core.Analyze(c, model, samples, params)
	fmt.Fprintf(w, "%s on %s: %s\n", bench, mach.Name, plan)
	core.SortLoadsByMisses(plan.Loads)
	for _, li := range plan.Loads {
		fmt.Fprintf(w, "  pc=%-4d mr(L1)=%.3f mr(LLC)=%.3f stride=%-6d dist=%-6d nta=%-5v %s\n",
			li.PC, li.MRL1, li.MRLLC, li.Stride, li.Distance, li.NTA, li.Decision)
	}
	return nil
}
