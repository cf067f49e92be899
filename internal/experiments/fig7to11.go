package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"prefetchlab/internal/machine"
	"prefetchlab/internal/metrics"
	"prefetchlab/internal/mix"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/sched"
	"prefetchlab/internal/textplot"
	"prefetchlab/internal/workloads"
)

// mixPolicies are the two policies the mixed-workload figures compare.
var mixPolicies = []pipeline.Policy{pipeline.SWPrefNT, pipeline.HWPref}

// MixStudy is the outcome of running the session's mixes on one machine,
// either with the profiled inputs (Figure 7) or with randomly varied inputs
// (Figure 9, §VII-D).
type MixStudy struct {
	Machine    string
	DiffInputs bool
	Mixes      [][]string
	// Comparisons is index-aligned with Mixes; a nil entry is a mix whose
	// baseline run was skipped under the failure budget (see Skipped).
	Comparisons []*mix.Comparison
	// Skipped lists abandoned mixes and policy runs.
	Skipped []SkippedCell
}

// has reports whether comparison c carries policy p (it may have been
// skipped under the failure budget, or the whole mix may be nil).
func has(c *mix.Comparison, p pipeline.Policy) bool {
	if c == nil {
		return false
	}
	_, ok := c.ByPolicy[p]
	return ok
}

// WSDist returns the distribution of weighted-speedup deltas (WS−1) of a
// policy across the mixes that ran it.
func (st *MixStudy) WSDist(p pipeline.Policy) metrics.Distribution {
	vals := make([]float64, 0, len(st.Comparisons))
	for _, c := range st.Comparisons {
		if has(c, p) {
			vals = append(vals, c.WS(p)-1)
		}
	}
	return metrics.NewDistribution(vals)
}

// TrafficDist returns the distribution of off-chip traffic deltas.
func (st *MixStudy) TrafficDist(p pipeline.Policy) metrics.Distribution {
	vals := make([]float64, 0, len(st.Comparisons))
	for _, c := range st.Comparisons {
		if has(c, p) {
			vals = append(vals, c.TrafficDelta(p))
		}
	}
	return metrics.NewDistribution(vals)
}

// FSAvg returns the mean fair speedup of a policy.
func (st *MixStudy) FSAvg(p pipeline.Policy) float64 {
	var s float64
	n := 0
	for _, c := range st.Comparisons {
		if has(c, p) {
			s += c.FS(p)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// QoSAvg returns the mean QoS degradation of a policy.
func (st *MixStudy) QoSAvg(p pipeline.Policy) float64 {
	var s float64
	n := 0
	for _, c := range st.Comparisons {
		if has(c, p) {
			s += c.QoS(p)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// SWNTBeatsHW counts mixes where the software method's throughput exceeds
// hardware prefetching's.
func (st *MixStudy) SWNTBeatsHW() int {
	n := 0
	for _, c := range st.Comparisons {
		if has(c, pipeline.SWPrefNT) && has(c, pipeline.HWPref) &&
			c.WS(pipeline.SWPrefNT) > c.WS(pipeline.HWPref) {
			n++
		}
	}
	return n
}

// Slowdowns counts mixes a policy slows below the baseline.
func (st *MixStudy) Slowdowns(p pipeline.Policy) int {
	n := 0
	for _, c := range st.Comparisons {
		if has(c, p) && c.WS(p) < 1 {
			n++
		}
	}
	return n
}

// mixStudy runs (and caches) the session's mixes on one machine. Mixes are
// independent tasks: each fans out to an engine worker and the comparisons
// merge in mix order. The inner per-mix policy runs stay serial — the mix
// fan-out already saturates the pool.
func (s *Session) mixStudy(ctx context.Context, mach machine.Machine, diffInputs bool) (*MixStudy, error) {
	key := fmt.Sprintf("mixstudy/%s/%v", mach.Name, diffInputs)
	return s.studies.Do(key, func() (*MixStudy, error) {
		mixes, err := mix.Generate(s.O.Mixes, s.O.Seed, workloads.Names())
		if err != nil {
			return nil, err
		}
		scope := fmt.Sprintf("fig7-11/%s/profiled-inputs", mach.Name)
		if diffInputs {
			scope = fmt.Sprintf("fig7-11/%s/diff-inputs", mach.Name)
		}
		runner := &mix.Runner{Prof: s.Prof, Mach: mach, ProfileInput: s.Input(),
			Pool: s.mixRunPool(len(mixes)), Obs: s.O.Obs, Scope: scope}
		if diffInputs {
			// §VII-D: run each mix slot with a randomly selected
			// non-reference input. The choice draws from an RNG stream
			// seeded by the (mix, slot) task key — never from shared
			// state — so it is identical at any worker count.
			seed := s.O.Seed
			scale := s.O.Scale
			runner.RunInput = func(mixIdx, slot int) workloads.Input {
				rng := rand.New(rand.NewSource(seed*7919 + int64(mixIdx)*64 + int64(slot)))
				return workloads.Input{ID: 1 + rng.Intn(3), Scale: scale}
			}
		}
		st := &MixStudy{Machine: mach.Name, DiffInputs: diffInputs, Mixes: mixes}
		outs, err := sched.MapOutcomes(ctx, s.pool().Named(key), len(mixes), func(i int) (*mix.Comparison, error) {
			s.logf("mix %d/%d on %s (diff=%v): %v", i+1, len(mixes), mach.Name, diffInputs, mixes[i])
			return runner.RunOne(ctx, i, mixes[i], mixPolicies)
		})
		if err != nil {
			return nil, err
		}
		st.Comparisons = make([]*mix.Comparison, len(mixes))
		for i, o := range outs {
			if o.Skipped {
				s.recordSkip(&st.Skipped, fmt.Sprintf("%s/mix%03d %v", key, i, mixes[i]), skipReason(o.Err))
				continue
			}
			st.Comparisons[i] = o.Value
			// Surface per-policy skips the mix runner absorbed.
			for _, sp := range o.Value.Skipped {
				s.recordSkip(&st.Skipped, fmt.Sprintf("%s/mix%03d/%s", key, i, sp.Policy), sp.Reason)
			}
		}
		return st, nil
	})
}

// Fig7Result holds the same-input mixed-workload study on both machines.
type Fig7Result struct {
	Studies []*MixStudy
}

// Fig7 reproduces Figure 7: weighted-speedup and off-chip-traffic
// distributions across random mixes on both machines.
func (s *Session) Fig7(ctx context.Context) (*Fig7Result, error) {
	out := &Fig7Result{}
	for _, mach := range s.Machines() {
		st, err := s.mixStudy(ctx, mach, false)
		if err != nil {
			return nil, err
		}
		out.Studies = append(out.Studies, st)
	}
	return out, nil
}

// Print renders the four panels of Figure 7.
func (r *Fig7Result) Print(s *Session) {
	w := s.O.Out
	fmt.Fprintf(w, "Figure 7: Distributions across %d mixed workloads (sorted per series)\n", s.O.Mixes)
	pct := func(v float64) string { return fmt.Sprintf("%+.1f%%", v*100) }
	for _, st := range r.Studies {
		fmt.Fprintf(w, " (%s)\n", st.Machine)
		textplot.Curve{Title: "  Weighted speedup over baseline mix", FmtV: pct}.Render(w, []textplot.Series{
			{Name: "Soft Pref.+NT", Sorted: st.WSDist(pipeline.SWPrefNT).Values()},
			{Name: "Hardware Pref.", Sorted: st.WSDist(pipeline.HWPref).Values()},
		})
		textplot.Curve{Title: "  Off-chip traffic increase", FmtV: pct}.Render(w, []textplot.Series{
			{Name: "Soft Pref.+NT", Sorted: st.TrafficDist(pipeline.SWPrefNT).Values()},
			{Name: "Hardware Pref.", Sorted: st.TrafficDist(pipeline.HWPref).Values()},
		})
		sw, hw := st.WSDist(pipeline.SWPrefNT), st.WSDist(pipeline.HWPref)
		swt, hwt := st.TrafficDist(pipeline.SWPrefNT), st.TrafficDist(pipeline.HWPref)
		fmt.Fprintf(w, "  avg speedup: SW+NT %s, HW %s | SW+NT beats HW in %d/%d mixes | HW slows %d mixes, SW+NT slows %d\n",
			pct(sw.Mean()), pct(hw.Mean()), st.SWNTBeatsHW(), len(st.Comparisons),
			st.Slowdowns(pipeline.HWPref), st.Slowdowns(pipeline.SWPrefNT))
		fmt.Fprintf(w, "  avg traffic:  SW+NT %s, HW %s | min SW+NT speedup %s\n",
			pct(swt.Mean()), pct(hwt.Mean()), pct(sw.Min()))
		printSkipped(w, st.Skipped)
	}
}

// Fig9Result holds the different-input study (input sensitivity, §VII-D).
type Fig9Result struct {
	Studies []*MixStudy
}

// Fig9 reproduces Figure 9: the same mixes run with inputs other than those
// profiled.
func (s *Session) Fig9(ctx context.Context) (*Fig9Result, error) {
	out := &Fig9Result{}
	for _, mach := range s.Machines() {
		st, err := s.mixStudy(ctx, mach, true)
		if err != nil {
			return nil, err
		}
		out.Studies = append(out.Studies, st)
	}
	return out, nil
}

// Print renders the two panels of Figure 9.
func (r *Fig9Result) Print(s *Session) {
	w := s.O.Out
	fmt.Fprintf(w, "Figure 9: Speedup distributions across %d mixes with different inputs\n", s.O.Mixes)
	pct := func(v float64) string { return fmt.Sprintf("%+.1f%%", v*100) }
	for _, st := range r.Studies {
		fmt.Fprintf(w, " (%s)\n", st.Machine)
		textplot.Curve{Title: "  Weighted speedup over baseline mix", FmtV: pct}.Render(w, []textplot.Series{
			{Name: "Soft Pref.+NT", Sorted: st.WSDist(pipeline.SWPrefNT).Values()},
			{Name: "Hardware Pref.", Sorted: st.WSDist(pipeline.HWPref).Values()},
		})
		sw, hw := st.WSDist(pipeline.SWPrefNT), st.WSDist(pipeline.HWPref)
		swt, hwt := st.TrafficDist(pipeline.SWPrefNT), st.TrafficDist(pipeline.HWPref)
		fmt.Fprintf(w, "  avg speedup: SW+NT %s, HW %s | avg traffic: SW+NT %s, HW %s | HW slows %d mixes, SW+NT slows %d\n",
			pct(sw.Mean()), pct(hw.Mean()), pct(swt.Mean()), pct(hwt.Mean()),
			st.Slowdowns(pipeline.HWPref), st.Slowdowns(pipeline.SWPrefNT))
		printSkipped(w, st.Skipped)
	}
}

// Fig10Result holds the fair-speedup averages of Figure 10: AMD and Intel,
// original and different inputs.
type Fig10Result struct {
	Labels []string
	SWNT   []float64
	HW     []float64
}

// Fig10 reproduces Figure 10 (fair speedup, normalized to baseline).
func (s *Session) Fig10(ctx context.Context) (*Fig10Result, error) {
	return s.fig1011(ctx, func(st *MixStudy, p pipeline.Policy) float64 { return st.FSAvg(p) })
}

// Fig11Result holds the QoS-degradation averages of Figure 11.
type Fig11Result = Fig10Result

// Fig11 reproduces Figure 11 (QoS degradation; closer to zero is better).
func (s *Session) Fig11(ctx context.Context) (*Fig11Result, error) {
	return s.fig1011(ctx, func(st *MixStudy, p pipeline.Policy) float64 { return st.QoSAvg(p) })
}

// fig1011 evaluates a per-study metric over the four study groups.
func (s *Session) fig1011(ctx context.Context, metric func(*MixStudy, pipeline.Policy) float64) (*Fig10Result, error) {
	out := &Fig10Result{}
	for _, mach := range s.Machines() {
		for _, diff := range []bool{false, true} {
			st, err := s.mixStudy(ctx, mach, diff)
			if err != nil {
				return nil, err
			}
			label := mach.Name + "-avg"
			if diff {
				label = mach.Name + " avg-diff-in"
			}
			out.Labels = append(out.Labels, label)
			out.SWNT = append(out.SWNT, metric(st, pipeline.SWPrefNT))
			out.HW = append(out.HW, metric(st, pipeline.HWPref))
		}
	}
	return out, nil
}

// Print renders the grouped bars of Figures 10/11.
func (r *Fig10Result) Print(s *Session) {
	w := s.O.Out
	fmt.Fprintln(w, "Fair-Speedup / QoS summary (per machine, original and different inputs)")
	fmt.Fprintf(w, "  %-26s %14s %14s\n", "", "Soft Pref.+NT", "Hardware Pref.")
	for i, label := range r.Labels {
		fmt.Fprintf(w, "  %-26s %14.3f %14.3f\n", label, r.SWNT[i], r.HW[i])
	}
}
