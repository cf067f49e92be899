package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"prefetchlab/internal/obs"
	"prefetchlab/internal/workloads"
)

// analyticCPIBounds is the golden table for TestAnalyticVsSimulator: the
// worst acceptable solo CPI-prediction error per benchmark, on either
// machine, at the session's test configuration (scale 0.05, sampler period
// 1024). Bounds are measured error plus ~1.5-2x margin, so they fail on
// regressions without flaking on platform noise (the whole stack is
// deterministic, so in practice these only move when the model or the
// simulator changes). gcc is the documented outlier: its phase mix of
// pointer chasing and dense sweeps is where the single-window StatStack
// CPI model is weakest (see EXPERIMENTS.md).
var analyticCPIBounds = map[string]float64{
	"gcc":        0.70,
	"libquantum": 0.18,
	"lbm":        0.15,
	"mcf":        0.25,
	"omnetpp":    0.10,
	"soplex":     0.22,
	"astar":      0.25,
	"xalan":      0.15,
	"leslie3d":   0.20,
	"GemsFDTD":   0.25,
	"milc":       0.15,
	"cigar":      0.22,
}

// analyticAggBounds pins the per-machine aggregate error bounds the docs
// quote. Mix slowdown error is dominated by the two bandwidth-saturated
// session mixes (lbm/milc/GemsFDTD streaming together), where the analytic
// queue model under-predicts the simulator's batch pile-ups; the bound is
// wide there and documented as the tier's known weak regime.
var analyticAggBounds = map[string]struct {
	meanCPI, maxCPI, meanMR, meanBW, meanSd, maxSd float64
}{
	"AMD Phenom II":      {0.12, 0.70, 0.04, 0.25, 3.2, 6.0},
	"Intel Sandy Bridge": {0.18, 0.70, 0.04, 0.25, 4.5, 9.0},
}

// TestAnalyticVsSimulator is the differential golden test: the analytic
// tier and the full timing simulator run the complete Table I workload set
// plus the session mixes on both machines, and every per-benchmark and
// aggregate error must stay inside the pinned bounds.
func TestAnalyticVsSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator over all 12 workloads; several minutes")
	}
	s := sharedSession() // all 12 benchmarks, 2 mixes, seed 11
	r, err := s.AnalyticValidate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Skipped) != 0 {
		t.Fatalf("skipped cells in a fault-free run: %+v", r.Skipped)
	}
	if len(r.Reports) != 2 {
		t.Fatalf("reports = %d, want one per machine", len(r.Reports))
	}
	names := workloads.Names()
	for _, rep := range r.Reports {
		agg, ok := analyticAggBounds[rep.Machine]
		if !ok {
			t.Fatalf("no golden bounds for machine %q", rep.Machine)
		}
		if len(rep.Solo) != len(names) {
			t.Fatalf("%s: %d solo rows, want %d", rep.Machine, len(rep.Solo), len(names))
		}
		for i, row := range rep.Solo {
			if row.Bench != names[i] {
				t.Fatalf("%s: row %d is %s, want Table I order (%s)", rep.Machine, i, row.Bench, names[i])
			}
			if row.PredCPI <= 0.5 || row.SimCPI <= 0.5 {
				t.Errorf("%s/%s: degenerate CPI pred %.3f sim %.3f", rep.Machine, row.Bench, row.PredCPI, row.SimCPI)
			}
			if row.PredMR < 0 || row.PredMR > 1 || row.SimMR < 0 || row.SimMR > 1 {
				t.Errorf("%s/%s: miss ratio out of range: pred %.4f sim %.4f", rep.Machine, row.Bench, row.PredMR, row.SimMR)
			}
			if bound := analyticCPIBounds[row.Bench]; row.CPIErr > bound {
				t.Errorf("%s/%s: CPI error %.1f%% exceeds golden bound %.0f%% (pred %.3f, sim %.3f)",
					rep.Machine, row.Bench, row.CPIErr*100, bound*100, row.PredCPI, row.SimCPI)
			}
		}
		if e := rep.MeanCPIErr(); e > agg.meanCPI {
			t.Errorf("%s: mean CPI err %.3f > %.3f", rep.Machine, e, agg.meanCPI)
		}
		if e := rep.MaxCPIErr(); e > agg.maxCPI {
			t.Errorf("%s: max CPI err %.3f > %.3f", rep.Machine, e, agg.maxCPI)
		}
		if e := rep.MeanMRErr(); e > agg.meanMR {
			t.Errorf("%s: mean LLC-mr err %.4f > %.4f", rep.Machine, e, agg.meanMR)
		}
		if e := rep.MeanBWErr(); e > agg.meanBW {
			t.Errorf("%s: mean BW err %.3f > %.3f", rep.Machine, e, agg.meanBW)
		}
		if len(rep.Mixes) != 2 {
			t.Fatalf("%s: %d mix rows, want 2", rep.Machine, len(rep.Mixes))
		}
		for _, row := range rep.Mixes {
			if len(row.Names) != 4 || len(row.PredSlowdown) != 4 || len(row.SimSlowdown) != 4 {
				t.Fatalf("%s: malformed mix row %+v", rep.Machine, row)
			}
			for j, sd := range row.PredSlowdown {
				if sd < 1 {
					t.Errorf("%s mix %v: predicted slowdown %.3f < 1 for %s",
						rep.Machine, row.Names, sd, row.Names[j])
				}
			}
		}
		if e := rep.MeanSlowdownErr(); e > agg.meanSd {
			t.Errorf("%s: mix slowdown MAE %.3f > %.3f", rep.Machine, e, agg.meanSd)
		}
		if e := rep.MaxSlowdownErr(); e > agg.maxSd {
			t.Errorf("%s: mix slowdown max err %.3f > %.3f", rep.Machine, e, agg.maxSd)
		}
		// The tier must predict real contention, not default to "no
		// interference": across the session's mixes the mean predicted
		// slowdown is well above 1.
		var sd float64
		var n int
		for _, row := range rep.Mixes {
			for _, v := range row.PredSlowdown {
				sd += v
				n++
			}
		}
		if mean := sd / float64(n); mean < 1.2 {
			t.Errorf("%s: mean predicted mix slowdown %.3f — tier predicts no contention", rep.Machine, mean)
		}
	}
	// The rendered report is what EXPERIMENTS.md quotes; make sure it
	// carries the aggregate lines.
	var buf bytes.Buffer
	s.O.Out = &buf
	r.Print(s)
	for _, want := range []string{"solo: mean CPI err", "mixes (2): slowdown MAE"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("printed report missing %q", want)
		}
	}
}

// TestAnalyticDeterministicAcrossWorkers pins the tier's scheduling
// invariant: the analytic study's rendered output and its synthesized
// stats-registry snapshots are byte-identical at -workers=1 and
// -workers=8.
func TestAnalyticDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles four benchmarks twice")
	}
	t.Parallel() // the workers=1 run keeps a single core busy; overlap it
	run := func(workers int) (string, string) {
		var out bytes.Buffer
		o := &obs.Obs{Stats: obs.NewStats()}
		s := NewSession(Options{
			Scale: 0.05, Mixes: 2, Seed: 11, SamplerPeriod: 1024,
			Workers: workers, Out: &out, Obs: o,
			Benches: []string{"libquantum", "mcf", "omnetpp", "cigar"},
			Tier:    "analytic",
		})
		r, err := s.Analytic(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		r.Print(s)
		var stats bytes.Buffer
		if err := o.Stats.WriteJSON(&stats); err != nil {
			t.Fatal(err)
		}
		return out.String(), stats.String()
	}
	out1, stats1 := run(1)
	out8, stats8 := run(8)
	if out1 != out8 {
		t.Errorf("rendered analytic output differs between -workers=1 and -workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", out1, out8)
	}
	if stats1 != stats8 {
		t.Error("stats-registry JSON differs between -workers=1 and -workers=8")
	}
	if !strings.Contains(stats1, "analytic/") {
		t.Error("stats registry missing analytic snapshots")
	}
}
