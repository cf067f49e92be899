package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"prefetchlab/internal/obs"
	"prefetchlab/internal/workloads"
)

// staticMAEBounds is the golden table for TestStaticVsSampled: the worst
// acceptable mean absolute miss-ratio error between the static (zero
// execution) MRC and the sampled StatStack MRC, per benchmark, at the
// session's test configuration (scale 0.05, sampler period 1024, seed 11).
// Bounds are measured error plus ~2x margin. cigar is the documented
// outlier: its bursty phase structure means the sampled model sees phases
// blended through one reservoir while the static model keeps them separate
// (see EXPERIMENTS.md). lbm/leslie3d carry wide bounds for the same reason
// in milder form — multi-array sweeps whose cross-pass reuse lands near a
// cache-size knee, where a small reuse-distance disagreement is amplified.
var staticMAEBounds = map[string]float64{
	"gcc":        0.020,
	"libquantum": 0.035,
	"lbm":        0.070,
	"mcf":        0.025,
	"omnetpp":    0.060,
	"soplex":     0.035,
	"astar":      0.005,
	"xalan":      0.015,
	"leslie3d":   0.060,
	"GemsFDTD":   0.010,
	"milc":       0.005,
	"cigar":      0.150,
}

// staticInsertFloor is the minimum acceptable insert-decision agreement per
// benchmark. At the pinned seed both tiers agree on every comparable load of
// every workload, so the floor is 1.0 almost everywhere. cigar keeps a
// relaxed floor: its short burst phases give the sampler few stride pairs
// per phase, so small seed changes can flip one load to too-few-samples or
// no-dominant-stride while the static tier (which sees the whole text)
// still says insert — the known, documented divergence mode of the tier.
var staticInsertFloor = map[string]float64{"cigar": 0.80}

func insertFloor(bench string) float64 {
	if f, ok := staticInsertFloor[bench]; ok {
		return f
	}
	return 1.0
}

// TestStaticVsSampled is the differential golden test for the static tier:
// the zero-execution analyzer profiles the complete Table I workload set and
// its stride classification, prefetch decisions, and miss-ratio curves must
// agree with the sampled pipeline inside the pinned per-workload bounds.
func TestStaticVsSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sampled pipeline over all 12 workloads")
	}
	s := sharedSession() // all 12 benchmarks, seed 11
	r, err := s.StaticValidate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Skipped) != 0 {
		t.Fatalf("skipped cells in a fault-free run: %+v", r.Skipped)
	}
	names := workloads.Names()
	if len(r.Rows) != len(names) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(names))
	}
	for i, row := range r.Rows {
		if row.Bench != names[i] {
			t.Fatalf("row %d is %s, want Table I order (%s)", i, row.Bench, names[i])
		}
		if row.Loads == 0 || row.Comparable == 0 {
			t.Errorf("%s: no comparable loads (loads=%d)", row.Bench, row.Loads)
			continue
		}
		if a := row.InsertAgreement(); a < insertFloor(row.Bench) {
			t.Errorf("%s: insert agreement %.2f (%d/%d) below floor %.2f",
				row.Bench, a, row.InsertAgree, row.Comparable, insertFloor(row.Bench))
		}
		// Stride agreement is pinned exactly: when both tiers say insert,
		// they derive the dominant stride from the same program, so any
		// mismatch is a real classifier bug, not noise.
		if row.StrideAgree < row.InsertAgree {
			t.Errorf("%s: stride agreement %d/%d below insert agreement %d",
				row.Bench, row.StrideAgree, row.Comparable, row.InsertAgree)
		}
		// The static tier must actually recommend prefetches where the
		// sampled tier does — not trivially agree by never inserting.
		if row.SampledInserts > 0 && row.StaticInserts == 0 {
			t.Errorf("%s: sampled tier inserts %d, static tier inserts none",
				row.Bench, row.SampledInserts)
		}
		bound, ok := staticMAEBounds[row.Bench]
		if !ok {
			t.Fatalf("no golden MAE bound for %q", row.Bench)
		}
		if row.MRCMAE > bound {
			t.Errorf("%s: MRC MAE %.4f exceeds golden bound %.4f (max err %.4f)",
				row.Bench, row.MRCMAE, bound, row.MRCMax)
		}
		if row.MRCMax < row.MRCMAE {
			t.Errorf("%s: max err %.4f below MAE %.4f", row.Bench, row.MRCMax, row.MRCMAE)
		}
	}
	// The rendered report is what EXPERIMENTS.md quotes; make sure it
	// carries the aggregate line.
	var buf bytes.Buffer
	s.O.Out = &buf
	r.Print(s)
	if !strings.Contains(buf.String(), "total: insert agreement") {
		t.Errorf("printed report missing aggregate line:\n%s", buf.String())
	}
}

// TestStaticValidateDeterministicAcrossWorkers pins the static tier's
// scheduling invariant: the differential study's rendered output and its
// synthesized stats-registry snapshots (including the static agreement
// section) are byte-identical at -workers=1 and -workers=8.
func TestStaticValidateDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles four benchmarks twice")
	}
	run := func(workers int) (string, string) {
		var out bytes.Buffer
		o := &obs.Obs{Stats: obs.NewStats()}
		s := NewSession(Options{
			Scale: 0.05, Mixes: 2, Seed: 11, SamplerPeriod: 1024,
			Workers: workers, Out: &out, Obs: o,
			Benches: []string{"libquantum", "mcf", "omnetpp", "cigar"},
			Tier:    "static",
		})
		r, err := s.StaticValidate(context.Background())
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
		t.Errorf("rendered static-validate output differs between -workers=1 and -workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", out1, out8)
	}
	if stats1 != stats8 {
		t.Error("stats-registry JSON differs between -workers=1 and -workers=8")
	}
	if !strings.Contains(stats1, `"static"`) {
		t.Error("stats registry missing the static agreement section")
	}
}
