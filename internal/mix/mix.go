// Package mix implements the mixed-workload methodology of §VII-C: random
// four-application mixes run in parallel on the four cores of a simulated
// socket, each application restarting on completion so contention persists
// until every application has finished at least once. The baseline for
// every mix is the same mix with all prefetching off.
package mix

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"prefetchlab/internal/cpu"
	"prefetchlab/internal/isa"
	"prefetchlab/internal/machine"
	"prefetchlab/internal/metrics"
	"prefetchlab/internal/obs"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/sched"
	"prefetchlab/internal/workloads"
)

// Generate draws n mixes of four distinct benchmarks from names, seeded for
// reproducibility (the paper uses 180 randomly generated mixes). Mixes are
// deduplicated as ordered core assignments, so a pool of k names admits at
// most k·(k-1)·(k-2)·(k-3) distinct mixes; asking for more is an error
// rather than a rejection-sampling livelock.
func Generate(n int, seed int64, names []string) ([][]string, error) {
	if len(names) < 4 {
		return nil, fmt.Errorf("mix: need at least four benchmarks, have %d", len(names))
	}
	possible := len(names) * (len(names) - 1) * (len(names) - 2) * (len(names) - 3)
	if n > possible {
		return nil, fmt.Errorf("mix: %d mixes requested but only %d distinct mixes exist over %d benchmarks (lower -mixes or widen -benches)",
			n, possible, len(names))
	}
	r := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([][]string, 0, n)
	for len(out) < n {
		perm := r.Perm(len(names))[:4]
		m := []string{names[perm[0]], names[perm[1]], names[perm[2]], names[perm[3]]}
		key := fmt.Sprint(m)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, m)
	}
	return out, nil
}

// Result holds one mix run under one policy.
type Result struct {
	Names   []string
	Policy  pipeline.Policy
	Apps    []cpu.Result
	Traffic int64 // Σ per-app off-chip traffic up to each first completion
}

// appTraffic sums per-app traffic snapshots.
func appTraffic(apps []cpu.Result) int64 {
	var t int64
	for _, a := range apps {
		t += a.Stats.TotalTraffic()
	}
	return t
}

// Cycles returns the per-app first-completion times.
func (r Result) Cycles() []int64 {
	out := make([]int64, len(r.Apps))
	for i, a := range r.Apps {
		out[i] = a.Cycles
	}
	return out
}

// Makespan returns the time at which the last application first completed.
func (r Result) Makespan() int64 {
	var m int64
	for _, a := range r.Apps {
		if a.Cycles > m {
			m = a.Cycles
		}
	}
	return m
}

// AvgBandwidthGBps returns the average off-chip bandwidth over the mix.
func (r Result) AvgBandwidthGBps(mach machine.Machine) float64 {
	ms := r.Makespan()
	if ms == 0 {
		return 0
	}
	return mach.GBps(float64(r.Traffic) / float64(ms))
}

// Comparison holds one mix evaluated against its no-prefetching baseline.
// Policies whose simulation was abandoned under the engine's failure budget
// are absent from ByPolicy and listed in Skipped instead.
type Comparison struct {
	Names    []string
	Base     Result
	ByPolicy map[pipeline.Policy]Result
	Skipped  []SkippedPolicy
}

// SkippedPolicy records a policy run the engine gave up on.
type SkippedPolicy struct {
	Policy pipeline.Policy
	Reason string
}

// orZero collapses a metrics size-mismatch error to the documented zero
// value. Inside a Comparison the baseline and every policy run simulate
// the same mix, so the app counts always agree and the error path is
// unreachable; asking for a policy the mix never ran yields 0.
func orZero(v float64, err error) float64 {
	if err != nil {
		return 0
	}
	return v
}

// WS returns the weighted speedup of a policy relative to the mix baseline
// (0 for a policy the mix was not run under).
func (c *Comparison) WS(p pipeline.Policy) float64 {
	return orZero(metrics.WeightedSpeedup(c.Base.Cycles(), c.ByPolicy[p].Cycles()))
}

// FS returns the fair speedup of a policy relative to the mix baseline
// (0 for a policy the mix was not run under).
func (c *Comparison) FS(p pipeline.Policy) float64 {
	return orZero(metrics.FairSpeedup(c.Base.Cycles(), c.ByPolicy[p].Cycles()))
}

// QoS returns the QoS degradation of a policy relative to the mix baseline
// (0 for a policy the mix was not run under).
func (c *Comparison) QoS(p pipeline.Policy) float64 {
	return orZero(metrics.QoS(c.Base.Cycles(), c.ByPolicy[p].Cycles()))
}

// TrafficDelta returns the relative off-chip traffic change of a policy.
func (c *Comparison) TrafficDelta(p pipeline.Policy) float64 {
	return metrics.Delta(c.Base.Traffic, c.ByPolicy[p].Traffic)
}

// Runner executes mixes. It is safe for concurrent RunOne calls: the
// profiler cache is single-flight and every policy run builds its own
// memory hierarchy.
type Runner struct {
	Prof *pipeline.Profiler
	Mach machine.Machine
	// ProfileInput is the input used for profiling (reference input).
	ProfileInput workloads.Input
	// RunInput, when non-nil, selects the input each mix slot runs with
	// (§VII-D input sensitivity); it receives the mix index and slot and
	// returns the run input. Nil runs the profile input. It must be a pure
	// function of its arguments — policy runs of a slot may evaluate it
	// concurrently and expect the same answer.
	RunInput func(mixIdx, slot int) workloads.Input
	// Pool fans the baseline + per-policy simulations of one mix out
	// across engine workers. The zero value uses every CPU; callers that
	// already fan out across mixes should pass a pool sized to the workers
	// that fan-out leaves idle (sched.Serial when it fills them all).
	Pool sched.Pool
	// Obs, when non-nil, receives a machine snapshot per policy run. Keys
	// are prefixed with Scope (default "mix/<machine>") so different
	// studies over the same mixes stay distinct in the registry.
	Obs   *obs.Obs
	Scope string
}

// snapshotKey builds the deterministic registry key of one policy run.
func (r *Runner) snapshotKey(mixIdx int, names []string, policy pipeline.Policy) string {
	scope := r.Scope
	if scope == "" {
		scope = "mix/" + r.Mach.Name
	}
	return fmt.Sprintf("%s/mix%03d:%s/%s", scope, mixIdx, strings.Join(names, "+"), policy)
}

// RunOne executes one mix under the baseline and the given policies. The
// baseline and each policy are independent tasks (each simulates the full
// mix on its own hierarchy), merged in policy order.
func (r *Runner) RunOne(ctx context.Context, mixIdx int, names []string, policies []pipeline.Policy) (*Comparison, error) {
	run := func(policy pipeline.Policy) (Result, error) {
		compiled, err := r.variants(ctx, mixIdx, names, policy)
		if err != nil {
			return Result{}, err
		}
		h, err := pipeline.Hierarchy(r.Mach, len(compiled), policy)
		if err != nil {
			return Result{}, err
		}
		apps, err := cpu.RunMix(h, compiled)
		if err != nil {
			return Result{}, err
		}
		r.Obs.RecordMachine(r.snapshotKey(mixIdx, names, policy), r.Mach.Name, h, apps)
		return Result{Names: names, Policy: policy, Apps: apps, Traffic: appTraffic(apps)}, nil
	}
	outs, err := sched.MapOutcomes(ctx, r.Pool, 1+len(policies), func(i int) (Result, error) {
		if i == 0 {
			return run(pipeline.Baseline)
		}
		return run(policies[i-1])
	})
	if err != nil {
		return nil, err
	}
	if outs[0].Skipped {
		// Without the baseline no relative metric of this mix is defined.
		return nil, fmt.Errorf("mix %03d baseline skipped: %w", mixIdx, outs[0].Err)
	}
	cmp := &Comparison{Names: names, Base: outs[0].Value, ByPolicy: make(map[pipeline.Policy]Result)}
	for i, p := range policies {
		if o := outs[i+1]; o.Skipped {
			cmp.Skipped = append(cmp.Skipped, SkippedPolicy{Policy: p, Reason: o.Err.Error()})
		} else {
			cmp.ByPolicy[p] = o.Value
		}
	}
	return cmp, nil
}

// variants resolves the compiled program of each mix slot for a policy.
func (r *Runner) variants(ctx context.Context, mixIdx int, names []string, policy pipeline.Policy) ([]*isa.Compiled, error) {
	out := make([]*isa.Compiled, len(names))
	for slot, name := range names {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		bp, err := r.Prof.Get(ctx, spec, r.ProfileInput)
		if err != nil {
			return nil, err
		}
		runIn := r.ProfileInput
		if r.RunInput != nil {
			runIn = r.RunInput(mixIdx, slot)
		}
		c, err := bp.Variant(ctx, r.Mach, policy, runIn)
		if err != nil {
			return nil, err
		}
		out[slot] = c
	}
	return out, nil
}
