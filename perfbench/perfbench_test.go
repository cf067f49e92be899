package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	bf := loadBenchmarkFile(t)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad metric name %q", name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("bad unit %q for %s", unit, name)
		}
		if seen[name] {
			t.Errorf("metric %q listed twice", name)
		}
		seen[name] = true
	}
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit)
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit)
	}
	for _, w := range bf.Workloads {
		if _, err := specFor(w.Name); err != nil {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to exercise the sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		q     float64
		value float64
		used  float64
	}{
		{n: 1000, q: 0.99, value: 990, used: 0.99},  // exactly ten above
		{n: 2000, q: 0.99, value: 1980, used: 0.99}, // twenty above
		{n: 100, q: 0.99, value: 90, used: 0.90},    // lowered to keep ten above
		{n: 15, q: 0.5, value: 5, used: 5.0 / 15},   // even the median is lowered
		{n: 5, q: 0.99, value: 1, used: 0.2},        // too few: the minimum
	} {
		v, used := tailPercentile(ramp(tc.n), tc.q)
		if v != tc.value || used != tc.used {
			t.Errorf("n=%d q=%v: got (%v, %v), want (%v, %v)", tc.n, tc.q, v, used, tc.value, tc.used)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// tinySpec shrinks a workload to the smallest programs so that tests run
// it end to end in seconds.
func tinySpec(t *testing.T, name string) spec {
	t.Helper()
	sp, err := specFor(name)
	if err != nil {
		t.Fatal(err)
	}
	sp.scale = 0.004
	sp.model = []string{"cigar", "gcc"}
	sp.samplingPasses, sp.setupReps = 2, 1
	sp.soloQueries, sp.mixQueries, sp.staticQueries, sp.queryPasses = 30, 30, 30, 1
	switch name {
	case soloSim:
		sp.solo = []string{"cigar", "gcc"}
	case mixSim:
		sp.mixPool = []string{"cigar", "gcc", "xalan", "omnetpp"}
	}
	return sp
}

// testLog forwards the benchmark's diagnostics to the test log.
type testLog struct{ t *testing.T }

func (w testLog) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// workloadNames lists every workload the runner knows, including mix-sim,
// which BENCHMARK.json leaves out.
var workloadNames = []string{soloSim, mixSim, modelTiers}

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs each workload untraced for one round and checks that it
// reports exactly the end-to-end metrics, all positive, with no failures.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := execute(tinySpec(t, name), 7, 1, false, "", testLog{t})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(bf.EndToEnd) {
				t.Errorf("got metrics %v, want the %d end-to-end metrics", keys(res.Metrics), len(bf.EndToEnd))
			}
			for _, m := range bf.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) || !finite(got.Value) {
					t.Errorf("%s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}

// TestFidelity makes the traced run of each workload at tiny scale: the
// traced loop, the VM replay and the hierarchy replays must reproduce the
// engine's results exactly, and every per-layer metric must be reported.
func TestFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload traced")
	}
	bf := loadBenchmarkFile(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			path := t.TempDir() + "/trace.json"
			res, err := execute(tinySpec(t, name), 7, 1, true, path, testLog{t})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(bf.PerLayer) {
				t.Errorf("got metrics %v, want the %d per-layer metrics", keys(res.Metrics), len(bf.PerLayer))
			}
			for _, m := range bf.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || !finite(got.Value) {
					t.Errorf("%s: got %+v (present %v), want a finite value in %s", m.Name, got, ok, m.Unit)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
				t.Fatalf("trace file: %d events, err %v", len(tr.TraceEvents), err)
			}
		})
	}
}

// TestFidelityCheckFails shows that the decomposition's checks catch a
// result that differs from what the engine produced.
func TestFidelityCheckFails(t *testing.T) {
	b := newBench(context.Background(), tinySpec(t, soloSim), 7, testLog{t})
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	b.jobRound()
	if b.failed != 0 || len(b.jobSims) == 0 {
		t.Fatalf("job round: %d failed, %d simulations", b.failed, len(b.jobSims))
	}
	c := b.jobSims[0]
	c.want = append(c.want[:0:0], c.want...)
	c.want[0].Stats.L1Misses++
	if err := b.decompose(c, newBudget()); err == nil {
		t.Fatal("decompose accepted a result the engine did not produce")
	}
}
