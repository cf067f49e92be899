package experiments

// analytic.go wires the MRC-only fast tier (internal/analytic) into the
// experiment engine. Two drivers ship:
//
//   - "analytic" predicts every benchmark's solo steady state and the
//     session's mixes on both machines from StatStack models alone — no
//     timing simulation — and records synthesized machine snapshots under
//     the same obs registry the simulator uses;
//   - "analytic-validate" is the differential harness: it runs the analytic
//     tier and the full simulator over the same benchmarks and mixes and
//     renders the per-metric error report (internal/analytic/validate) whose
//     bounds the golden tests pin.
//
// Both fan out through the session pool, so task keys, retries, failure
// budgets and checkpointing behave exactly as for the simulator figures.

import (
	"context"
	"fmt"
	"strings"

	"prefetchlab/internal/analytic"
	"prefetchlab/internal/analytic/validate"
	"prefetchlab/internal/machine"
	"prefetchlab/internal/mix"
	"prefetchlab/internal/obs"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/ref"
	"prefetchlab/internal/sched"
	"prefetchlab/internal/workloads"
)

// AnalyticCore returns the cached analytic-tier inputs of one benchmark on
// the reference input (profile-cached, so repeated predictions share the
// one functional counting pass).
func (s *Session) AnalyticCore(ctx context.Context, bench string) (analytic.Core, error) {
	bp, err := s.Profile(ctx, bench)
	if err != nil {
		return analytic.Core{}, err
	}
	return bp.AnalyticCore(), nil
}

// AnalyticSnapshot synthesizes a stats-registry machine snapshot from an
// analytic prediction, so `-tier=analytic -stats-json` exports through the
// same registry, keys and schema as simulator runs. Counters the model does
// not predict (prefetch usefulness, per-level fills/evictions) stay zero;
// miss counts are the modeled ratios scaled by each core's reference count.
func AnalyticSnapshot(machineName string, pred analytic.Prediction, cores []analytic.Core) obs.MachineSnapshot {
	snap := obs.MachineSnapshot{Machine: machineName}
	for i, cp := range pred.Cores {
		var counts analytic.Counts
		if i < len(cores) {
			counts = cores[i].Counts
		}
		refs := counts.Refs()
		cs := obs.CoreSnapshot{
			Core:         i,
			Bench:        cp.Name,
			Cycles:       cp.Cycles,
			Instructions: counts.Instructions,
			MemRefs:      refs + counts.Prefetches,
		}
		cs.Demand = obs.DemandStats{
			Loads:     counts.Loads,
			Stores:    counts.Stores,
			L1Misses:  int64(cp.MR1 * float64(refs)),
			L2Misses:  int64(cp.MR2 * float64(refs)),
			LLCMisses: int64(cp.MRLLC * float64(refs)),
		}
		fetch := cs.Demand.LLCMisses * ref.LineSize
		wb := int64(cp.MRLLC*float64(counts.Stores)) * ref.LineSize
		cs.Traffic = obs.TrafficStats{DemandFetch: fetch, Writeback: wb, Total: fetch + wb}
		cs.L1 = obs.LevelStats{Misses: cs.Demand.L1Misses, MissRatio: cp.MR1}
		cs.L2 = obs.LevelStats{Misses: cs.Demand.L2Misses, MissRatio: cp.MR2}
		snap.LLC.Misses += cs.Demand.LLCMisses
		snap.DRAM.Bytes += cs.Traffic.Total
		snap.DRAM.Transfers += cs.Traffic.Total / ref.LineSize
		snap.Cores = append(snap.Cores, cs)
	}
	if acc := totalRefs(cores); acc > 0 {
		snap.LLC.MissRatio = float64(snap.LLC.Misses) / float64(acc)
	}
	return snap
}

// meanOf averages a slice (0 for empty).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// totalRefs sums demand references across cores.
func totalRefs(cores []analytic.Core) int64 {
	var n int64
	for _, c := range cores {
		n += c.Counts.Refs()
	}
	return n
}

// AnalyticStudy is the analytic tier's output for one machine: solo
// predictions for every benchmark plus predictions for the session's mixes.
type AnalyticStudy struct {
	Machine string
	Benches []string
	// Solo is index-aligned with Benches; a zero-value prediction (no
	// cores) marks a benchmark skipped under the failure budget.
	Solo  []analytic.Prediction
	Mixes [][]string
	// MixPreds is index-aligned with Mixes, with the same skip convention.
	MixPreds []analytic.Prediction
	Skipped  []SkippedCell
}

// AnalyticResult holds the analytic-tier studies of both machines.
type AnalyticResult struct {
	Studies []*AnalyticStudy
}

// Analytic runs the MRC-only prediction tier: solo steady states for the
// session's benchmarks and shared-LLC fixed points for its mixes, on both
// machines, without the timing simulator.
func (s *Session) Analytic(ctx context.Context) (*AnalyticResult, error) {
	mixes, err := mix.Generate(s.O.Mixes, s.O.Seed, s.mixNames())
	if err != nil {
		return nil, err
	}
	out := &AnalyticResult{}
	for _, mach := range s.Machines() {
		st, err := s.analyticStudy(ctx, mach, mixes)
		if err != nil {
			return nil, err
		}
		out.Studies = append(out.Studies, st)
	}
	return out, nil
}

// mixNames returns the name pool mixes draw from: the session's benchmark
// subset when it is large enough to mix, the full Table I set otherwise.
func (s *Session) mixNames() []string {
	if names := s.benchNames(); len(names) >= 4 {
		return names
	}
	return workloads.Names()
}

// analyticStudy predicts one machine's solo and mix steady states. Tasks
// fan out through the session pool and merge in index order, so results —
// and the synthesized snapshots' keys — are identical at any worker count.
func (s *Session) analyticStudy(ctx context.Context, mach machine.Machine, mixes [][]string) (*AnalyticStudy, error) {
	benches := s.benchNames()
	st := &AnalyticStudy{Machine: mach.Name, Benches: benches, Mixes: mixes}
	soloKey := fmt.Sprintf("analytic/%s/solo", mach.Name)
	soloOuts, err := sched.MapOutcomes(ctx, s.pool().Named(soloKey), len(benches), func(i int) (analytic.Prediction, error) {
		s.logf("analytic solo %d/%d on %s: %s", i+1, len(benches), mach.Name, benches[i])
		core, err := s.AnalyticCore(ctx, benches[i])
		if err != nil {
			return analytic.Prediction{}, err
		}
		pred := analytic.Predict(mach, []analytic.Core{core})
		s.O.Obs.RecordSnapshot(fmt.Sprintf("%s/%s", soloKey, benches[i]),
			AnalyticSnapshot(mach.Name, pred, []analytic.Core{core}))
		return pred, nil
	})
	if err != nil {
		return nil, err
	}
	st.Solo = make([]analytic.Prediction, len(benches))
	for i, o := range soloOuts {
		if o.Skipped {
			s.recordSkip(&st.Skipped, fmt.Sprintf("%s/%s", soloKey, benches[i]), skipReason(o.Err))
			continue
		}
		st.Solo[i] = o.Value
	}
	mixKey := fmt.Sprintf("analytic/%s/mix", mach.Name)
	mixOuts, err := sched.MapOutcomes(ctx, s.pool().Named(mixKey), len(mixes), func(i int) (analytic.Prediction, error) {
		s.logf("analytic mix %d/%d on %s: %v", i+1, len(mixes), mach.Name, mixes[i])
		cores, err := s.analyticCores(ctx, mixes[i])
		if err != nil {
			return analytic.Prediction{}, err
		}
		pred := analytic.Predict(mach, cores)
		s.O.Obs.RecordSnapshot(fmt.Sprintf("%s%03d:%s", mixKey, i, strings.Join(mixes[i], "+")),
			AnalyticSnapshot(mach.Name, pred, cores))
		return pred, nil
	})
	if err != nil {
		return nil, err
	}
	st.MixPreds = make([]analytic.Prediction, len(mixes))
	for i, o := range mixOuts {
		if o.Skipped {
			s.recordSkip(&st.Skipped, fmt.Sprintf("%s%03d %v", mixKey, i, mixes[i]), skipReason(o.Err))
			continue
		}
		st.MixPreds[i] = o.Value
	}
	return st, nil
}

// analyticCores resolves the analytic inputs of one mix's applications.
func (s *Session) analyticCores(ctx context.Context, names []string) ([]analytic.Core, error) {
	cores := make([]analytic.Core, len(names))
	for i, name := range names {
		c, err := s.AnalyticCore(ctx, name)
		if err != nil {
			return nil, err
		}
		cores[i] = c
	}
	return cores, nil
}

// Print renders the analytic tier's per-benchmark table and mix summary.
func (r *AnalyticResult) Print(s *Session) {
	w := s.O.Out
	fmt.Fprintln(w, "Analytic tier: MRC-only steady-state predictions (no timing simulation)")
	for _, st := range r.Studies {
		fmt.Fprintf(w, " (%s)\n", st.Machine)
		fmt.Fprintf(w, "  %-12s %8s %8s %8s %9s %10s\n",
			"bench", "CPI", "LLC mr", "occ MB", "BW GB/s", "pref GB/s")
		for i, b := range st.Benches {
			p := st.Solo[i]
			if len(p.Cores) == 0 {
				continue
			}
			c := p.Cores[0]
			fmt.Fprintf(w, "  %-12s %8.3f %8.4f %8.2f %9.2f %10.2f\n",
				b, c.CPI, c.MRLLC, float64(c.OccupancyBytes)/(1<<20),
				c.BandwidthGBps, c.PrefetchGBps)
		}
		var sd, maxSd, bw float64
		cores, preds := 0, 0
		for _, p := range st.MixPreds {
			if len(p.Cores) == 0 {
				continue
			}
			preds++
			bw += p.TotalBandwidthGBps
			for _, c := range p.Cores {
				sd += c.Slowdown
				if c.Slowdown > maxSd {
					maxSd = c.Slowdown
				}
				cores++
			}
		}
		if preds > 0 {
			fmt.Fprintf(w, "  mixes: %d predicted | mean slowdown %.3f, max %.3f | mean demand %.2f GB/s\n",
				preds, sd/float64(cores), maxSd, bw/float64(preds))
		}
		printSkipped(w, st.Skipped)
	}
}

// AnalyticValidateResult is the differential harness's output: one error
// report per machine.
type AnalyticValidateResult struct {
	Reports []*validate.Report
	Skipped []SkippedCell
}

// AnalyticValidate runs the analytic tier and the full timing simulator
// over the same benchmarks and mixes and reports per-metric error. This is
// the one analytic experiment that deliberately runs the simulator — it is
// the reference the fast tier is validated against.
func (s *Session) AnalyticValidate(ctx context.Context) (*AnalyticValidateResult, error) {
	mixes, err := mix.Generate(s.O.Mixes, s.O.Seed, s.mixNames())
	if err != nil {
		return nil, err
	}
	out := &AnalyticValidateResult{}
	for _, mach := range s.Machines() {
		rep, err := s.validateMachine(ctx, mach, mixes, &out.Skipped)
		if err != nil {
			return nil, err
		}
		out.Reports = append(out.Reports, rep)
	}
	return out, nil
}

// validateMachine builds one machine's differential report: a solo row per
// benchmark (analytic vs baseline measurement) and a mix row per session
// mix (analytic fixed point vs baseline mix simulation).
func (s *Session) validateMachine(ctx context.Context, mach machine.Machine, mixes [][]string, skipped *[]SkippedCell) (*validate.Report, error) {
	rep := &validate.Report{Machine: mach.Name}
	benches := s.benchNames()
	soloKey := fmt.Sprintf("analytic-validate/%s/solo", mach.Name)
	soloOuts, err := sched.MapOutcomes(ctx, s.pool().Named(soloKey), len(benches), func(i int) (validate.SoloRow, error) {
		bench := benches[i]
		s.logf("analytic-validate solo %d/%d on %s: %s", i+1, len(benches), mach.Name, bench)
		core, err := s.AnalyticCore(ctx, bench)
		if err != nil {
			return validate.SoloRow{}, err
		}
		sim, err := s.Solo(ctx, bench, mach, pipeline.Baseline)
		if err != nil {
			return validate.SoloRow{}, err
		}
		pred := analytic.Predict(mach, []analytic.Core{core})
		return validate.SoloRowOf(bench, pred, sim, mach), nil
	})
	if err != nil {
		return nil, err
	}
	for i, o := range soloOuts {
		if o.Skipped {
			s.recordSkip(skipped, fmt.Sprintf("%s/%s", soloKey, benches[i]), skipReason(o.Err))
			continue
		}
		rep.Solo = append(rep.Solo, o.Value)
	}
	runner := &mix.Runner{Prof: s.Prof, Mach: mach, ProfileInput: s.Input(),
		Pool: s.mixRunPool(len(mixes)), Obs: s.O.Obs, Scope: "analytic-validate/" + mach.Name}
	mixKey := fmt.Sprintf("analytic-validate/%s/mix", mach.Name)
	mixOuts, err := sched.MapOutcomes(ctx, s.pool().Named(mixKey), len(mixes), func(i int) (validate.MixRow, error) {
		names := mixes[i]
		s.logf("analytic-validate mix %d/%d on %s: %v", i+1, len(mixes), mach.Name, names)
		cores, err := s.analyticCores(ctx, names)
		if err != nil {
			return validate.MixRow{}, err
		}
		pred := analytic.Predict(mach, cores)
		// Baseline-only simulation: no policies, just the contended mix.
		cmp, err := runner.RunOne(ctx, i, names, nil)
		if err != nil {
			return validate.MixRow{}, err
		}
		soloCycles := make([]int64, len(names))
		for j, name := range names {
			simSolo, err := s.Solo(ctx, name, mach, pipeline.Baseline)
			if err != nil {
				return validate.MixRow{}, err
			}
			soloCycles[j] = simSolo.Cycles
		}
		return validate.MixRowOf(names, pred, cmp.Base.Apps, soloCycles, cmp.Base.AvgBandwidthGBps(mach)), nil
	})
	if err != nil {
		return nil, err
	}
	for i, o := range mixOuts {
		if o.Skipped {
			s.recordSkip(skipped, fmt.Sprintf("%s%03d %v", mixKey, i, mixes[i]), skipReason(o.Err))
			continue
		}
		rep.Mixes = append(rep.Mixes, o.Value)
	}
	return rep, nil
}

// Print renders the differential comparison tables and the aggregate error
// summary the docs quote.
func (r *AnalyticValidateResult) Print(s *Session) {
	w := s.O.Out
	fmt.Fprintln(w, "Analytic vs simulator: differential validation")
	for _, rep := range r.Reports {
		fmt.Fprintf(w, " (%s)\n", rep.Machine)
		fmt.Fprintf(w, "  %-12s %8s %8s %7s   %7s %7s %7s   %7s %7s %6s\n",
			"bench", "aCPI", "sCPI", "err", "aLLCmr", "sLLCmr", "abserr", "aGB/s", "sGB/s", "err")
		for _, row := range rep.Solo {
			fmt.Fprintf(w, "  %-12s %8.3f %8.3f %6.1f%%   %7.4f %7.4f %7.4f   %7.2f %7.2f %5.0f%%\n",
				row.Bench, row.PredCPI, row.SimCPI, row.CPIErr*100,
				row.PredMR, row.SimMR, row.MRErr,
				row.PredBW, row.SimBW, row.BWErr*100)
		}
		fmt.Fprintf(w, "  solo: mean CPI err %.1f%% (max %.1f%%) | mean LLC-mr err %.4f | mean BW err %.1f%%\n",
			rep.MeanCPIErr()*100, rep.MaxCPIErr()*100, rep.MeanMRErr(), rep.MeanBWErr()*100)
		if len(rep.Mixes) > 0 {
			var bwErr float64
			for _, row := range rep.Mixes {
				bwErr += row.BWErr
				fmt.Fprintf(w, "  mix %-40s slowdown %5.2f vs %5.2f (MAE %.3f) | BW %5.2f vs %5.2f GB/s\n",
					strings.Join(row.Names, "+"), meanOf(row.PredSlowdown), meanOf(row.SimSlowdown),
					row.SlowdownErr, row.PredBW, row.SimBW)
			}
			fmt.Fprintf(w, "  mixes (%d): slowdown MAE %.3f (max %.3f) | mean BW err %.1f%%\n",
				len(rep.Mixes), rep.MeanSlowdownErr(), rep.MaxSlowdownErr(),
				bwErr/float64(len(rep.Mixes))*100)
		}
	}
	printSkipped(w, r.Skipped)
}
