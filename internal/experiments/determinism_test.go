package experiments

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// serializeFig8 renders a Fig8Result to a canonical string: the full value
// plus its printed form, so both the numbers and the presentation are
// compared byte for byte.
func serializeFig8(s *Session, r *Fig8Result) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%+v\n", *r)
	out := s.O.Out
	s.O.Out = &buf
	r.Print(s)
	s.O.Out = out
	return buf.String()
}

// TestFig8DeterministicAcrossWorkerCounts is the engine's replay guarantee:
// the same study run serially and with every CPU must produce byte-identical
// results. Fresh sessions ensure nothing is shared but the options.
func TestFig8DeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a mix twice; skipped in -short")
	}
	t.Parallel() // the workers=1 run keeps a single core busy; overlap it
	runAt := func(workers int) string {
		s := NewSession(Options{
			Scale: 0.05, Mixes: 2, Seed: 11, SamplerPeriod: 1024,
			Out: &bytes.Buffer{}, Workers: workers,
		})
		r, err := s.Fig8(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return serializeFig8(s, r)
	}
	serial := runAt(1)
	parallel := runAt(runtime.NumCPU())
	if serial != parallel {
		t.Errorf("Fig8 differs between workers=1 and workers=%d:\n--- serial ---\n%s\n--- parallel ---\n%s",
			runtime.NumCPU(), serial, parallel)
	}
	// An explicit over-subscribed pool must agree too.
	if over := runAt(7); over != serial {
		t.Errorf("Fig8 differs between workers=1 and workers=7:\n--- serial ---\n%s\n--- workers=7 ---\n%s",
			serial, over)
	}
}

// TestFig12PrintGolden pins the rendered Figure 12 layout, including the
// high-bandwidth "*" marker, against a fixed result value.
func TestFig12PrintGolden(t *testing.T) {
	r := &Fig12Result{
		Machine: "Intel Xeon E5-2660",
		Rows: []Fig12Row{
			{Name: "swim", HighBandwidth: true, Threads: []int{1, 2, 4},
				SWNT: []float64{1, 1.99, 3.61}, HW: []float64{1, 1.97, 3.45},
				PeakBW4SW: 47.3, PeakBW4HW: 49.1},
			{Name: "fft", Threads: []int{1, 2, 4},
				SWNT: []float64{1.12, 2.2, 4.31}, HW: []float64{1.1, 2.18, 4.29},
				PeakBW4SW: 11.5, PeakBW4HW: 12},
		},
		AvgSWNT4: 3.96,
		AvgHW4:   3.87,
	}
	var buf bytes.Buffer
	s := NewSession(Options{Out: &buf})
	r.Print(s)
	want := strings.Join([]string{
		"Figure 12: Parallel workloads, 1/2/4 threads on Intel Xeon E5-2660 (speedup vs 1-thread baseline)",
		"  bench             |   SW 1t   SW 2t   SW 4t |   HW 1t   HW 2t   HW 4t | 4t bandwidth (SW/HW)",
		"  swim*             |    1.00    1.99    3.61 |    1.00    1.97    3.45 | 47.3 / 49.1 GB/s",
		"  fft               |    1.12    2.20    4.31 |    1.10    2.18    4.29 | 11.5 / 12.0 GB/s",
		"  avg 4-thread speedup: SW+NT 3.96, HW 3.87 (* = highest off-chip bandwidth)",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("Fig12 Print mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
