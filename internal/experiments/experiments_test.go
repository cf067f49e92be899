package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"prefetchlab/internal/pipeline"
)

// testSession restricts benchmarks and scale so experiment tests stay fast
// while exercising the full drivers end to end.
func testSession(benches ...string) *Session {
	return NewSession(Options{
		Scale:         0.05,
		Mixes:         2,
		Seed:          11,
		SamplerPeriod: 1024,
		Out:           &bytes.Buffer{},
		Benches:       benches,
	})
}

var fullSet struct {
	once sync.Once
	s    *Session
}

// sharedSession is the one all-benchmark testSession that every full-set
// test uses. Its single-flight caches then compute each profile, solo run
// and mix study once per test binary, as a `prefetchlab all` run does,
// instead of once per test; cached values are the values a fresh session
// would compute, so no assertion sees a different number. Tests may point
// s.O.Out at their own buffer before printing and must change no other
// option.
func sharedSession() *Session {
	fullSet.once.Do(func() { fullSet.s = testSession() })
	return fullSet.s
}

func TestTable1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles three benchmarks; TestTable1Smoke covers -short")
	}
	s := testSession("libquantum", "omnetpp", "milc")
	r, err := s.Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]Table1Row{}
	for _, row := range r.Rows {
		byName[row.Bench] = row
	}
	// Streaming benchmarks are highly coverable; pointer chasing is not.
	if byName["milc"].MDDLICov < 0.8 {
		t.Errorf("milc coverage = %.2f, want ≥ 0.8", byName["milc"].MDDLICov)
	}
	if byName["omnetpp"].MDDLICov > 0.3 {
		t.Errorf("omnetpp coverage = %.2f, want ≤ 0.3", byName["omnetpp"].MDDLICov)
	}
	// MDDLI must not execute more prefetches than stride-centric overall
	// (the paper's minimization claim).
	if r.PrefReduction < 0 {
		t.Errorf("MDDLI executed more prefetches than stride-centric: %.2f", r.PrefReduction)
	}
	var buf bytes.Buffer
	s.O.Out = &buf
	r.Print(s)
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("print output missing header")
	}
}

func TestFig3Monotone(t *testing.T) {
	s := sharedSession()
	r, err := s.Fig3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Average) != len(r.Sizes) {
		t.Fatal("size/curve mismatch")
	}
	for i := 1; i < len(r.Average); i++ {
		if r.Average[i] > r.Average[i-1]+1e-9 {
			t.Fatalf("average MRC not monotone at %d", i)
		}
		if r.Load[i] > r.Load[i-1]+1e-9 {
			t.Fatalf("per-load MRC not monotone at %d", i)
		}
	}
	if len(r.Marks) != 3 {
		t.Fatal("missing cache size marks")
	}
	var buf bytes.Buffer
	s.O.Out = &buf
	r.Print(s)
	if !strings.Contains(buf.String(), "L1$") {
		t.Error("marks not printed")
	}
}

func TestFig456SmallSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("timing runs are slow")
	}
	s := testSession("libquantum", "omnetpp")
	r, err := s.Fig456(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Machines) != 2 {
		t.Fatalf("machines = %d", len(r.Machines))
	}
	for _, mr := range r.Machines {
		// libquantum: SW+NT must speed up clearly; omnetpp must not regress
		// much (its prefetch opportunity is tiny).
		lib := mr.Cells["libquantum"][pipeline.SWPrefNT]
		if lib.Speedup <= 0 {
			t.Errorf("%s: libquantum SW+NT speedup = %.2f", mr.Machine, lib.Speedup)
		}
		omn := mr.Cells["omnetpp"][pipeline.SWPrefNT]
		if omn.Speedup < -0.05 {
			t.Errorf("%s: omnetpp SW+NT regressed %.2f", mr.Machine, omn.Speedup)
		}
		if mr.Baseline["libquantum"].BandwidthGBs <= 0 {
			t.Error("no baseline bandwidth")
		}
	}
	var buf bytes.Buffer
	s.O.Out = &buf
	r.PrintFig4(s)
	r.PrintFig5(s)
	r.PrintFig6(s)
	out := buf.String()
	for _, want := range []string{"Figure 4", "Figure 5", "Figure 6", "libquantum"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestStatCoverageHigh(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles two benchmarks; TestStatCoverageSmoke covers -short")
	}
	s := testSession("libquantum", "mcf")
	r, err := s.StatCoverage(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The model should cover the bulk of simulated misses (paper: 88 %+).
	if r.Avg64k < 0.6 {
		t.Errorf("64k coverage = %.2f, want ≥ 0.6", r.Avg64k)
	}
	if r.Avg512 < 0.6 {
		t.Errorf("512k coverage = %.2f, want ≥ 0.6", r.Avg512)
	}
	for _, row := range r.Rows {
		if row.Cov64k < 0 || row.Cov64k > 1.000001 {
			t.Errorf("%s: coverage out of range: %v", row.Bench, row.Cov64k)
		}
	}
}

// smokeSession is testSession at a smaller scale for the -short tier.
func smokeSession(benches ...string) *Session {
	return NewSession(Options{
		Scale:         0.02,
		Mixes:         1,
		Seed:          11,
		SamplerPeriod: 512,
		Out:           &bytes.Buffer{},
		Benches:       benches,
	})
}

// TestTable1Smoke exercises the Table 1 driver end to end on one benchmark
// — the fast-tier stand-in for TestTable1Shapes.
func TestTable1Smoke(t *testing.T) {
	s := smokeSession("libquantum")
	r, err := s.Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0].Bench != "libquantum" {
		t.Fatalf("rows = %+v", r.Rows)
	}
	if r.Rows[0].MDDLICov <= 0 {
		t.Errorf("libquantum coverage = %.2f, want > 0", r.Rows[0].MDDLICov)
	}
	var buf bytes.Buffer
	s.O.Out = &buf
	r.Print(s)
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("print output missing header")
	}
}

// TestStatCoverageSmoke is the fast-tier stand-in for TestStatCoverageHigh.
func TestStatCoverageSmoke(t *testing.T) {
	s := smokeSession("libquantum")
	r, err := s.StatCoverage(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Avg64k <= 0 || r.Avg64k > 1.000001 {
		t.Errorf("coverage out of range: %v", r.Avg64k)
	}
}

func TestBenchNamesFilter(t *testing.T) {
	s := testSession("mcf")
	if got := s.benchNames(); len(got) != 1 || got[0] != "mcf" {
		t.Fatalf("filter broken: %v", got)
	}
	s2 := testSession()
	if got := s2.benchNames(); len(got) != 12 {
		t.Fatalf("default names = %d", len(got))
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.Mixes <= 0 || o.Seed == 0 || o.SamplerPeriod <= 0 || o.Out == nil {
		t.Fatalf("defaults = %+v", o)
	}
}

// TestFingerprintPinned pins the exact checkpoint fingerprint strings. A
// -checkpoint file is only resumable while Options.Fingerprint renders its
// configuration byte-for-byte as it did when the file was written, so any
// change here orphans every existing checkpoint.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
		want string
	}{
		{"default sim", Options{}, "scale=1 seed=42 mixes=45 period=4096 benches="},
		{"explicit sim", Options{Tier: "sim"}, "scale=1 seed=42 mixes=45 period=4096 benches="},
		{"analytic", Options{Tier: "analytic"}, "scale=1 seed=42 mixes=45 period=4096 benches= tier=analytic"},
		{"static", Options{Tier: "static"}, "scale=1 seed=42 mixes=45 period=4096 benches= tier=static"},
		{"overrides", Options{Scale: 0.05, Mixes: 2, Seed: 11, SamplerPeriod: 1024, Benches: []string{"libquantum", "mcf"}},
			"scale=0.05 seed=11 mixes=2 period=1024 benches=libquantum,mcf"},
		// Scheduling-only options never enter the fingerprint.
		{"scheduling only", Options{Workers: 8, Retries: 3, FailureBudget: -1, Verbose: true},
			"scale=1 seed=42 mixes=45 period=4096 benches="},
	} {
		if got := tc.o.Normalized().Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint() = %q, want %q", tc.name, got, tc.want)
		}
	}
}
