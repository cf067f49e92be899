package prefetchlab

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates its artifact end to end at a reduced scale (the shapes are
// scale-stable because working-set:cache ratios are fixed) and reports the
// headline quantities as custom metrics. Run everything with
//
//	go test -bench=. -benchmem
//
// and use cmd/prefetchlab for full-scale runs.

import (
	"bytes"
	"context"
	"testing"

	"prefetchlab/internal/analytic"
	"prefetchlab/internal/experiments"
	"prefetchlab/internal/isa"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/staticprof"
	"prefetchlab/internal/statstack"
	"prefetchlab/internal/stridecentric"
)

// benchSession builds a session sized for benchmarking.
func benchSession(b *testing.B, benches ...string) *experiments.Session {
	b.Helper()
	return experiments.NewSession(experiments.Options{
		Scale:         0.1,
		Mixes:         2,
		Seed:          17,
		SamplerPeriod: 2048,
		Out:           &bytes.Buffer{},
		Benches:       benches,
	})
}

// fastSet is a representative benchmark subset keeping bench runtime sane:
// a streamer, a mixed strided/irregular code, a pointer chaser and the
// prefetcher-hostile genetic algorithm.
var fastSet = []string{"libquantum", "mcf", "omnetpp", "cigar"}

// BenchmarkTable1Coverage regenerates Table I (prefetch coverage and
// overhead, MDDLI-filtered vs stride-centric).
func BenchmarkTable1Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, fastSet...)
		r, err := s.Table1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgMDDLICov*100, "mddli-cov-%")
		b.ReportMetric(r.AvgStrideCov*100, "stride-cov-%")
		b.ReportMetric(r.PrefReduction*100, "pref-reduction-%")
	}
}

// BenchmarkFig3MRC regenerates Figure 3 (StatStack miss-ratio curves for
// mcf, application average and one load).
func BenchmarkFig3MRC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		r, err := s.Fig3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Average[0]*100, "mr-8k-%")
		b.ReportMetric(r.Average[len(r.Average)-1]*100, "mr-8M-%")
	}
}

// BenchmarkFig4Speedup regenerates Figure 4 (single-thread speedups of the
// four policies on both machines).
func BenchmarkFig4Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, fastSet...)
		r, err := s.Fig456(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		amd := r.Machines[0]
		b.ReportMetric(amd.AvgSpeedup[pipeline.HWPref]*100, "amd-hw-%")
		b.ReportMetric(amd.AvgSpeedup[pipeline.SWPrefNT]*100, "amd-swnt-%")
	}
}

// BenchmarkFig5Traffic regenerates Figure 5 (off-chip traffic increase).
func BenchmarkFig5Traffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, fastSet...)
		r, err := s.Fig456(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		amd := r.Machines[0]
		b.ReportMetric(amd.AvgTraffic[pipeline.HWPref]*100, "amd-hw-traffic-%")
		b.ReportMetric(amd.AvgTraffic[pipeline.SWPrefNT]*100, "amd-swnt-traffic-%")
		b.ReportMetric(r.HWTrafficReductionNT(0)*100, "nt-vs-hw-reduction-%")
	}
}

// BenchmarkFig6Bandwidth regenerates Figure 6 (average off-chip bandwidth).
func BenchmarkFig6Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, fastSet...)
		r, err := s.Fig456(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Machines[0].AvgBaseBW, "amd-base-GB/s")
		b.ReportMetric(r.Machines[0].AvgBW[pipeline.HWPref], "amd-hw-GB/s")
	}
}

// BenchmarkFig7Mixes regenerates Figure 7 (weighted-speedup and traffic
// distributions across random 4-app mixes on both machines).
func BenchmarkFig7Mixes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		r, err := s.Fig7(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		amd := r.Studies[0]
		b.ReportMetric(amd.WSDist(pipeline.SWPrefNT).Mean()*100, "amd-swnt-ws-%")
		b.ReportMetric(amd.WSDist(pipeline.HWPref).Mean()*100, "amd-hw-ws-%")
		b.ReportMetric(amd.TrafficDist(pipeline.SWPrefNT).Mean()*100, "amd-swnt-traffic-%")
	}
}

// BenchmarkFig8DetailMix regenerates Figure 8 (the cigar/gcc/lbm/libquantum
// mix on Intel).
func BenchmarkFig8DetailMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		r, err := s.Fig8(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SWNTAvg*100, "swnt-ws-%")
		b.ReportMetric(r.HWAvg*100, "hw-ws-%")
		b.ReportMetric(r.SWNTBandwidth, "swnt-GB/s")
	}
}

// BenchmarkFig9DiffInputs regenerates Figure 9 (mixes run with inputs other
// than the profiled one).
func BenchmarkFig9DiffInputs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		r, err := s.Fig9(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		amd := r.Studies[0]
		b.ReportMetric(amd.WSDist(pipeline.SWPrefNT).Mean()*100, "amd-swnt-ws-%")
	}
}

// BenchmarkFig10FairSpeedup regenerates Figure 10 (fair speedup averages).
func BenchmarkFig10FairSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		r, err := s.Fig10(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SWNT[0], "amd-swnt-fs")
		b.ReportMetric(r.HW[0], "amd-hw-fs")
	}
}

// BenchmarkFig11QoS regenerates Figure 11 (QoS degradation averages).
func BenchmarkFig11QoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		r, err := s.Fig11(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SWNT[0]*100, "amd-swnt-qos-%")
		b.ReportMetric(r.HW[0]*100, "amd-hw-qos-%")
	}
}

// BenchmarkFig12Parallel regenerates Figure 12 (parallel workloads at 1, 2
// and 4 threads on Intel).
func BenchmarkFig12Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		r, err := s.Fig12(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AvgSWNT4, "swnt-4t-speedup")
		b.ReportMetric(r.AvgHW4, "hw-4t-speedup")
	}
}

// BenchmarkStatStackCoverage regenerates the §IV model-validation numbers
// (miss coverage vs functional simulation at 64 kB and 512 kB).
func BenchmarkStatStackCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, fastSet...)
		r, err := s.StatCoverage(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Avg64k*100, "cov-64k-%")
		b.ReportMetric(r.Avg512*100, "cov-512k-%")
	}
}

// BenchmarkAblationCombined regenerates the §VIII-B2 observation that
// combining software and hardware prefetching can hurt.
func BenchmarkAblationCombined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, "libquantum", "cigar")
		r, err := s.AblationCombined(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.WorseCount), "combination-worse-cases")
	}
}

// BenchmarkAblationL2 regenerates the §VII-A "prefetches from L2 alone"
// observation.
func BenchmarkAblationL2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		r, err := s.AblationL2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].Speedup*100, "libquantum-l2-%")
	}
}

// BenchmarkPipelineOverhead measures the analysis pipeline itself — the
// paper's point that profiling + modeling is fast (StatStack models a
// benchmark in under a minute; here it is milliseconds).
func BenchmarkPipelineOverhead(b *testing.B) {
	prog, err := Workload("mcf", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	mach := AMDPhenomII()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := NewProfile(prog, DefaultProfileConfig())
		if err != nil {
			b.Fatal(err)
		}
		plan, err := prof.Analyze(mach, AnalyzeOptions{EnableNT: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Apply(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed in memory
// references per second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prog, err := Workload("libquantum", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	mach := AMDPhenomII()
	b.ResetTimer()
	var refs int64
	for i := 0; i < b.N; i++ {
		res, err := Simulate(prog, mach, SimOptions{})
		if err != nil {
			b.Fatal(err)
		}
		refs += res.MemRefs
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}

// BenchmarkAblationThrottle regenerates the hardware-prefetch throttling
// ablation (§I's observation that throttling still wastes traffic).
func BenchmarkAblationThrottle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		r, err := s.AblationThrottle(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TrafficThrottled*100, "throttled-traffic-%")
		b.ReportMetric(r.TrafficUnthrottled*100, "unthrottled-traffic-%")
	}
}

// BenchmarkAblationWindow regenerates the reorder-window (MLP) sensitivity
// sweep of the timing model.
func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b)
		r, err := s.AblationWindow(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SWNT[0]*100, "swnt-at-win32-%")
		b.ReportMetric(r.SWNT[len(r.SWNT)-1]*100, "swnt-at-win512-%")
	}
}

// BenchmarkAnalyticMRC measures one warm analytic-tier solo prediction:
// the shared-LLC fixed point from a cached StatStack model, the unit of
// work behind `-tier=analytic` once a benchmark is profiled. Compare
// ns/op against BenchmarkSimulatorThroughput's full timing simulation of
// the same benchmark — the measured gap is the tier's speedup headline.
func BenchmarkAnalyticMRC(b *testing.B) {
	s := benchSession(b)
	core, err := s.AnalyticCore(context.Background(), "libquantum")
	if err != nil {
		b.Fatal(err)
	}
	mach := AMDPhenomII()
	b.ResetTimer()
	var cpi float64
	for i := 0; i < b.N; i++ {
		pred := analytic.Predict(mach, []analytic.Core{core})
		if len(pred.Cores) != 1 {
			b.Fatal("no prediction")
		}
		cpi = pred.Cores[0].CPI
	}
	b.ReportMetric(cpi, "pred-cpi")
}

// BenchmarkStaticProfile measures one cold zero-execution static analysis
// of libquantum — the unit of work behind `-tier=static` and `?tier=static`:
// abstract interpretation of the compiled IR plus the closed-form reuse
// model, with no execution or sampling. Compare ns/op against
// BenchmarkPipelineOverhead's sampled profiling — the gap is the static
// tier's speedup headline.
func BenchmarkStaticProfile(b *testing.B) {
	prog, err := Workload("libquantum", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := isa.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	sizes := statstack.StandardSizes()
	b.ResetTimer()
	var mr float64
	for i := 0; i < b.N; i++ {
		prof, err := staticprof.Analyze(c, stridecentric.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		mrc := prof.MRC(sizes)
		mr = mrc[0]
	}
	b.ReportMetric(mr*100, "static-mr-at-8K-%")
}

// BenchmarkAnalyticMix measures a warm four-application mix prediction:
// the contended shared-LLC/bandwidth fixed point across the fastSet,
// which replaces a four-core co-run timing simulation under
// `-tier=analytic`.
func BenchmarkAnalyticMix(b *testing.B) {
	s := benchSession(b)
	cores := make([]analytic.Core, len(fastSet))
	for i, name := range fastSet {
		c, err := s.AnalyticCore(context.Background(), name)
		if err != nil {
			b.Fatal(err)
		}
		cores[i] = c
	}
	mach := AMDPhenomII()
	b.ResetTimer()
	var sd float64
	for i := 0; i < b.N; i++ {
		pred := analytic.Predict(mach, cores)
		if len(pred.Cores) != len(fastSet) {
			b.Fatal("short prediction")
		}
		sd = 0
		for _, c := range pred.Cores {
			sd += c.Slowdown
		}
	}
	b.ReportMetric(sd/float64(len(fastSet)), "mean-slowdown")
}

// BenchmarkAnalyticCore measures one cold analytic core build of
// libquantum — the counting pass plus every latency-response pass, on a
// fresh, already-profiled session — the one-off cost every analytic
// prediction of a program pays first. The sampling pass and StatStack fit
// run untimed.
func BenchmarkAnalyticCore(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchSession(b)
		if _, err := s.Profile(ctx, "libquantum"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		core, err := s.AnalyticCore(ctx, "libquantum")
		if err != nil {
			b.Fatal(err)
		}
		coreSink = core
	}
}

// coreSink keeps BenchmarkAnalyticCore's result live.
var coreSink analytic.Core
