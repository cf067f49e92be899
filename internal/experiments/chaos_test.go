package experiments

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"prefetchlab/internal/faultinject"
	"prefetchlab/internal/sched"
)

// chaosSession builds a session with ~5 % injected panic, error and latency
// faults, bounded retries and an unlimited failure budget: every driver must
// degrade gracefully instead of failing.
func chaosSession(t *testing.T, benches ...string) *Session {
	t.Helper()
	spec, err := faultinject.Parse("panic=0.05,error=0.05,latency=0.02,corrupt=0.02,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(Options{
		Scale:         0.01,
		Mixes:         1,
		Seed:          11,
		SamplerPeriod: 512,
		Out:           &bytes.Buffer{},
		Benches:       benches,
		Retries:       2,
		FailureBudget: -1,
		Fault:         faultinject.New(spec),
	})
}

// TestChaosFigureDriversSurviveFaults drives every figure and table through
// the engine under injected faults. No driver may return an error: cells the
// retry budget cannot save must surface as explicit skips, and whatever rows
// survive must still print. All drivers share one session — like a
// `prefetchlab all` run — so the single-flight study caches keep the sweep
// inside the package test budget on a single core.
func TestChaosFigureDriversSurviveFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep runs every driver; skipped in -short")
	}
	t.Parallel() // its one-mix studies keep a single core busy; overlap them
	ctx := context.Background()
	shared := chaosSession(t, "libquantum", "mcf", "omnetpp", "cigar")
	drivers := []struct {
		name string
		run  func(s *Session) (interface{ Print(*Session) }, error)
	}{
		{"table1", func(s *Session) (interface{ Print(*Session) }, error) { return s.Table1(ctx) }},
		{"fig3", func(s *Session) (interface{ Print(*Session) }, error) { return s.Fig3(ctx) }},
		{"fig4-6", func(s *Session) (interface{ Print(*Session) }, error) {
			r, err := s.Fig456(ctx)
			if err != nil {
				return nil, err
			}
			return printFunc(func(s *Session) { r.PrintFig4(s); r.PrintFig5(s); r.PrintFig6(s) }), nil
		}},
		{"fig7", func(s *Session) (interface{ Print(*Session) }, error) { return s.Fig7(ctx) }},
		{"fig8", func(s *Session) (interface{ Print(*Session) }, error) { return s.Fig8(ctx) }},
		{"fig9", func(s *Session) (interface{ Print(*Session) }, error) { return s.Fig9(ctx) }},
		{"fig10", func(s *Session) (interface{ Print(*Session) }, error) { return s.Fig10(ctx) }},
		{"fig11", func(s *Session) (interface{ Print(*Session) }, error) { return s.Fig11(ctx) }},
		{"fig12", func(s *Session) (interface{ Print(*Session) }, error) { return s.Fig12(ctx) }},
		{"statcov", func(s *Session) (interface{ Print(*Session) }, error) { return s.StatCoverage(ctx) }},
		{"ablation-combined", func(s *Session) (interface{ Print(*Session) }, error) { return s.AblationCombined(ctx) }},
		{"ablation-l2", func(s *Session) (interface{ Print(*Session) }, error) { return s.AblationL2(ctx) }},
		{"ablation-throttle", func(s *Session) (interface{ Print(*Session) }, error) { return s.AblationThrottle(ctx) }},
		{"ablation-window", func(s *Session) (interface{ Print(*Session) }, error) { return s.AblationWindow(ctx) }},
	}
	for _, d := range drivers {
		d := d
		t.Run(d.name, func(t *testing.T) {
			r, err := d.run(shared)
			if err != nil {
				t.Fatalf("%s did not survive injected faults: %v", d.name, err)
			}
			// Whatever survived must still render.
			var buf bytes.Buffer
			shared.O.Out = &buf
			r.Print(shared)
			if counts := shared.O.Fault.(*faultinject.Injector).Counts(); len(counts) > 0 {
				t.Logf("%s: injected %v so far, output %d bytes", d.name, counts, buf.Len())
			}
		})
	}
}

// printFunc adapts a closure to the Print interface of the driver table.
type printFunc func(*Session)

func (f printFunc) Print(s *Session) { f(s) }

// TestChaosSkipsAreDeterministic runs one faulted study at two worker counts
// and requires identical results — fault injection is task-keyed, so the
// skip set must not depend on scheduling.
func TestChaosSkipsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a study twice; skipped in -short")
	}
	run := func(workers int) (string, []SkippedCell) {
		spec, err := faultinject.Parse("panic=0.2,error=0.2,seed=3")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		s := NewSession(Options{
			Scale: 0.02, Mixes: 1, Seed: 11, SamplerPeriod: 512,
			Out: &buf, Benches: []string{"libquantum", "mcf", "omnetpp"},
			Workers: workers, Retries: 1, FailureBudget: -1,
			Fault: faultinject.New(spec),
		})
		r, err := s.StatCoverage(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		r.Print(s)
		return buf.String(), r.Skipped
	}
	out1, skip1 := run(1)
	out4, skip4 := run(4)
	if out1 != out4 {
		t.Errorf("faulted output differs across worker counts:\n--- w1 ---\n%s\n--- w4 ---\n%s", out1, out4)
	}
	if len(skip1) != len(skip4) {
		t.Fatalf("skip counts differ: %d vs %d", len(skip1), len(skip4))
	}
	for i := range skip1 {
		if skip1[i] != skip4[i] {
			t.Errorf("skip %d differs: %+v vs %+v", i, skip1[i], skip4[i])
		}
	}
}

// TestChaosCancellationMidStudy cancels a study mid-flight and requires the
// typed cancellation error rather than a hang or a panic.
func TestChaosCancellationMidStudy(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	s := NewSession(Options{
		Scale: 0.02, Mixes: 1, Seed: 11, SamplerPeriod: 512,
		Out: &bytes.Buffer{}, Benches: []string{"libquantum", "mcf", "omnetpp"},
		Workers: 1,
		Fault: sched.FaultFunc(func(batch string, index, attempt int) error {
			calls++
			if calls == 2 {
				cancel()
			}
			return nil
		}),
	})
	_, err := s.StatCoverage(ctx)
	if err == nil {
		t.Fatal("canceled study returned no error")
	}
	if !IsCancellation(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	var ce *sched.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T, want *sched.CanceledError", err)
	}
	if ce.Done >= ce.Total {
		t.Errorf("cancellation reported %d/%d done; expected a partial prefix", ce.Done, ce.Total)
	}
}
