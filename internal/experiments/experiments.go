// Package experiments contains one driver per table and figure of the
// paper's evaluation (§IV–§VII), plus the ablations the text mentions.
// Each driver computes a result struct (so tests can assert the paper's
// qualitative shapes) and renders the same rows or series the paper
// reports.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"

	"prefetchlab/internal/cpu"
	"prefetchlab/internal/machine"
	"prefetchlab/internal/obs"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/sampler"
	"prefetchlab/internal/sched"
	"prefetchlab/internal/workloads"
)

// Options configures an experiment session.
type Options struct {
	// Scale multiplies workload iteration counts (1.0 reproduces the
	// default run lengths; benchmarks keep ≥2 passes at any scale).
	Scale float64
	// Mixes is the number of random 4-app mixes for Figures 7–11
	// (the paper runs 180).
	Mixes int
	// Seed drives mix generation and input selection.
	Seed int64
	// SamplerPeriod is the mean references between samples.
	SamplerPeriod int64
	// Out receives rendered reports (default os.Stdout).
	Out io.Writer
	// Verbose adds per-load analysis detail to reports.
	Verbose bool
	// Benches restricts experiments to a subset of the Table I benchmarks
	// (nil = all twelve). Used by tests and benchmarks to bound runtime.
	Benches []string
	// Workers caps the experiment engine's concurrent simulation tasks.
	// 0 uses every CPU; 1 runs studies serially. Results are bit-identical
	// at any worker count: every task owns its machine, memory hierarchy,
	// sampler and RNG stream (seeded from the task key), and results merge
	// in task order.
	Workers int
	// Obs, when non-nil, attaches the observability layer: machine
	// snapshots into the stats registry after each simulation task, trace
	// spans for engine tasks and single-flight caches, and progress
	// accounting. Nil (the default) keeps all instrumentation off, so
	// figure output and determinism are untouched.
	Obs *obs.Obs
	// Retries is how many extra attempts a failing (or panicking)
	// simulation task gets before its cell is final. Retries are
	// deterministic: the same task retries identically at any worker
	// count.
	Retries int
	// FailureBudget governs graceful degradation: 0 fails a figure on the
	// first final task failure, a positive value absorbs up to that many
	// failed cells per batch as explicit skips, and a negative value
	// absorbs any number.
	FailureBudget int
	// Fault, when non-nil, injects deterministic faults into every task
	// attempt (chaos testing; see internal/faultinject).
	Fault sched.FaultHook
	// Save, when non-nil, checkpoints completed task results and replays
	// them on resume instead of re-executing (see internal/ckpt).
	Save sched.Saver
	// Tier selects the prediction tier: "sim" (the default; "" normalizes
	// to it) answers with the timing simulator, "analytic" answers from the
	// MRC-only analytic model (internal/analytic) and rejects experiments
	// that need the simulator, and "static" answers from the zero-execution
	// static analyzer (internal/staticprof) and rejects everything but its
	// own differential harness. The "analytic-validate" and "static-validate"
	// experiments run two tiers by design — they are the differential
	// harnesses.
	Tier string
}

// Fingerprint identifies the result-affecting configuration: the string
// covers exactly the options that change task results — never Workers,
// Retries or timeouts, which only change scheduling — so a checkpoint
// written under one fingerprint is valid for any schedule of the same
// configuration. Call on normalized options.
func (o Options) Fingerprint() string {
	fp := fmt.Sprintf("scale=%g seed=%d mixes=%d period=%d benches=%s",
		o.Scale, o.Seed, o.Mixes, o.SamplerPeriod, strings.Join(o.Benches, ","))
	// The tier changes what tasks compute; appended only when non-default
	// so fingerprints from before the option existed stay valid.
	if o.Tier != "" && o.Tier != "sim" {
		fp += " tier=" + o.Tier
	}
	return fp
}

// Tiers lists the valid Options.Tier values after normalization.
func Tiers() []string { return []string{"sim", "analytic", "static"} }

// ValidTier reports whether t names a prediction tier ("" is the default
// simulator tier).
func ValidTier(t string) bool {
	return t == "" || t == "sim" || t == "analytic" || t == "static"
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Mixes <= 0 {
		o.Mixes = 45
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.SamplerPeriod <= 0 {
		o.SamplerPeriod = 4096
	}
	if o.Out == nil {
		o.Out = os.Stdout
	}
	if o.Tier == "" {
		o.Tier = "sim"
	}
	return o
}

// Normalized returns the options with every unset field filled with its
// default, exactly as NewSession would see them. Long-running callers (the
// serve front end) use it to pin down the effective configuration before
// deriving fingerprints or sharing profilers.
func (o Options) Normalized() Options { return o.withDefaults() }

// Session caches profiles and solo runs so the figure drivers share work.
// Sessions are safe for concurrent use: the caches are single-flight, so
// engine workers asking for the same solo run or mix study share one
// computation.
type Session struct {
	O    Options
	Prof *pipeline.Profiler

	solo    sched.OnceMap[string, cpu.Result]
	studies sched.OnceMap[string, *MixStudy]

	logMu sync.Mutex
}

// NewSession creates a session.
func NewSession(o Options) *Session {
	o = o.withDefaults()
	s := &Session{
		O:    o,
		Prof: pipeline.NewProfiler(sampler.Config{Period: o.SamplerPeriod, Seed: o.Seed}),
	}
	s.Prof.SetObs(o.Obs)
	s.solo.Name, s.solo.Obs = "solo", o.Obs.CacheObserver()
	s.studies.Name, s.studies.Obs = "mixstudy", o.Obs.CacheObserver()
	return s
}

// pool returns the session's worker pool for fanning out simulation tasks;
// drivers label it per batch with Named. The observer only watches task
// timing — it cannot affect results. Retry, budget, fault-injection and
// checkpoint settings ride along from the options.
func (s *Session) pool() sched.Pool {
	return sched.Pool{
		Workers:       s.O.Workers,
		Obs:           s.O.Obs.SchedObserver(),
		MaxAttempts:   s.O.Retries + 1,
		FailureBudget: s.O.FailureBudget,
		Fault:         s.O.Fault,
		Save:          s.O.Save,
	}
}

// mixRunPool is the pool a mix.Runner uses for the baseline and policy
// runs of one mix while the session pool fans out across mixes. Each mix
// gets the workers the mix batch leaves idle, so a study with fewer mixes
// than workers still keeps every core busy while the two levels together
// stay within the worker budget. The pool carries no fault hook, saver or
// observer: those act on the mix batch, whose tasks are the whole mixes.
func (s *Session) mixRunPool(mixes int) sched.Pool {
	w := s.O.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if mixes > 0 && w/mixes > 1 {
		return sched.Pool{Workers: w / mixes}
	}
	return sched.Serial
}

// SkippedCell is one unit of work a figure driver abandoned after the retry
// budget: instead of silently zeroing the cell, drivers report it in the
// result and the stats registry.
type SkippedCell struct {
	Label  string
	Reason string
}

// skipReason compresses a final task error into a one-line reason.
func skipReason(err error) string {
	if err == nil {
		return "skipped"
	}
	var te *sched.TaskError
	if errors.As(err, &te) && te.Panic != nil {
		return fmt.Sprintf("panic after %d attempts: %v", te.Attempts, te.Panic)
	}
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return msg
}

// recordSkip appends a skipped cell to a figure's list and mirrors it into
// the stats registry so -stats-json reports it explicitly.
func (s *Session) recordSkip(skipped *[]SkippedCell, label, reason string) {
	*skipped = append(*skipped, SkippedCell{Label: label, Reason: reason})
	s.O.Obs.RecordSkipped(label, reason)
}

// printSkipped renders a figure's skipped-cell list, if any.
func printSkipped(w io.Writer, skipped []SkippedCell) {
	if len(skipped) == 0 {
		return
	}
	fmt.Fprintf(w, "  skipped %d cell(s) after retries:\n", len(skipped))
	for _, sc := range skipped {
		fmt.Fprintf(w, "    %-36s %s\n", sc.Label, sc.Reason)
	}
}

// isCancellation reports whether err is a cancellation rather than a task
// failure; cancellations always abort a figure instead of degrading it.
func isCancellation(err error) bool {
	return errors.Is(err, sched.ErrCanceled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// IsCancellation reports whether an error returned by a figure driver stems
// from run cancellation (signal, timeout, or sched.ErrCanceled) rather than
// a task failure. Callers use it to report interrupted runs distinctly.
func IsCancellation(err error) bool { return isCancellation(err) }

// Input returns the reference input at the session scale.
func (s *Session) Input() workloads.Input {
	return workloads.Input{ID: 0, Scale: s.O.Scale}
}

// InputID returns input set id at the session scale.
func (s *Session) InputID(id int) workloads.Input {
	return workloads.Input{ID: id, Scale: s.O.Scale}
}

// Profile returns the cached profile of a benchmark on the reference input.
func (s *Session) Profile(ctx context.Context, bench string) (*pipeline.BenchProfile, error) {
	spec, err := workloads.ByName(bench)
	if err != nil {
		return nil, err
	}
	return s.Prof.Get(ctx, spec, s.Input())
}

// Solo returns the cached solo run of one benchmark under one policy.
func (s *Session) Solo(ctx context.Context, bench string, mach machine.Machine, pol pipeline.Policy) (cpu.Result, error) {
	key := fmt.Sprintf("%s/%s/%d", bench, mach.Name, pol)
	return s.solo.Do(key, func() (cpu.Result, error) {
		bp, err := s.Profile(ctx, bench)
		if err != nil {
			return cpu.Result{}, err
		}
		if pol == pipeline.Baseline {
			m, err := bp.Measure(ctx, mach)
			if err != nil {
				return cpu.Result{}, err
			}
			return m.Result, nil
		}
		return bp.RunSolo(ctx, mach, pol, s.Input())
	})
}

// Machines returns the two evaluation machines in paper order.
func (s *Session) Machines() []machine.Machine { return machine.Both() }

// logf writes a progress line when verbose. It serializes writers because
// engine workers log concurrently.
func (s *Session) logf(format string, args ...any) {
	if s.O.Verbose {
		s.logMu.Lock()
		fmt.Fprintf(s.O.Out, "# "+format+"\n", args...)
		s.logMu.Unlock()
	}
}
