package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"time"

	"prefetchlab/internal/analytic"
	"prefetchlab/internal/core"
	"prefetchlab/internal/cpu"
	"prefetchlab/internal/experiments"
	"prefetchlab/internal/isa"
	"prefetchlab/internal/machine"
	"prefetchlab/internal/memsys"
	"prefetchlab/internal/mix"
	"prefetchlab/internal/obs"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/sampler"
	"prefetchlab/internal/sched"
	"prefetchlab/internal/staticprof"
	"prefetchlab/internal/statstack"
	"prefetchlab/internal/stridecentric"
	"prefetchlab/internal/workloads"
)

// spec sizes one workload. The program lists are chosen so that a job
// round takes a few seconds: every Table I program has a floor of two
// passes over its data, so Input.Scale cannot shrink the large ones.
type spec struct {
	name  string
	scale float64
	// solo lists the programs the solo-sim job runs alone on both machines.
	solo []string
	// mixPool is what mix.Generate draws the mix-sim mix from.
	mixPool []string
	// model lists the programs of the model round: the model-tiers job, and
	// a side phase of the other two workloads.
	model []string
	// samplingPasses repeats the sampling pass in each model round.
	samplingPasses int
	// Warm queries per query pass; each is timed on its own.
	soloQueries, mixQueries, staticQueries int
	// queryPasses is how many times a model round issues its queries.
	queryPasses int
	// setupReps is how many times setup runs; setup_s is their median.
	setupReps int
}

const (
	soloSim    = "solo-sim"
	mixSim     = "mix-sim"
	modelTiers = "model-tiers"
)

func specFor(name string) (spec, error) {
	sp := spec{
		name:           name,
		scale:          0.02,
		model:          []string{"cigar", "gcc"},
		samplingPasses: 6,
		soloQueries:    1000,
		mixQueries:     1000,
		staticQueries:  1000,
		queryPasses:    4,
		setupReps:      3,
	}
	switch name {
	case soloSim:
		// A stream (milc), pointer chases (omnetpp, xalan) and gathers (gcc,
		// cigar); the other Table I programs are left out only for their
		// run length, which would leave too few rounds to steady the run.
		sp.solo = []string{"gcc", "omnetpp", "xalan", "milc", "cigar"}
	case mixSim:
		// Four programs, so every draw co-runs the same set on a different
		// core assignment and the job's cost does not depend on the seed.
		// xalan and omnetpp chase pointers; gcc and cigar are short, have
		// strided loops the hardware prefetchers train on, and restart many
		// times, cloning their memory images.
		sp.mixPool = []string{"omnetpp", "xalan", "gcc", "cigar"}
	case modelTiers:
		// A set-up here takes under 0.2 s, so the median of three would
		// move with a single slow one.
		sp.setupReps = 9
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, soloSim, mixSim, modelTiers)
	}
	return sp, nil
}

var (
	machines     = machine.Both()
	soloPolicies = []pipeline.Policy{pipeline.Baseline, pipeline.SWPrefNT}
	// mixPolicies run next to the baseline RunOne always adds.
	mixPolicies = []pipeline.Policy{pipeline.HWPref, pipeline.SWPrefNT}
)

// programs returns every program the workload profiles, without repeats.
func (sp spec) programs() []string {
	var out []string
	seen := map[string]bool{}
	for _, list := range [][]string{sp.solo, sp.mixPool, sp.model} {
		for _, n := range list {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// modelMix is the four-core mix of the model programs, repeated to fill
// four cores: the analytic mix queries predict it, and traced runs of
// workloads without a mix job simulate it once.
func (sp spec) modelMix() []string {
	out := make([]string, 4)
	for i := range out {
		out[i] = sp.model[i%len(sp.model)]
	}
	return out
}

// bench is one benchmark process: a workload at one seed.
type bench struct {
	sp   spec
	seed int64
	ctx  context.Context
	rec  *recorder // nil unless tracing
	log  io.Writer

	in     workloads.Input
	scfg   sampler.Config
	prof   *pipeline.Profiler
	bps    map[string]*pipeline.BenchProfile
	params map[string][]core.Params // model program -> per-machine analysis inputs
	runner *mix.Runner
	mix    []string

	staticAgree float64

	attempted, failed int

	setupS []float64
	// units holds the timings of the repeated pieces of work: one entry
	// per repetition. Host load slows the process in phases of seconds
	// (see README.md), so a metric sums each unit's fastest repetition.
	units    map[string][]time.Duration
	unitRefs map[string]int64 // references one repetition of a unit handles
	// Per-query latencies in µs, the fastest over the model rounds.
	soloBest, mixBest, staticBest []float64

	rounds                             int       // timed job rounds
	wall, allocMB, gcCycles, gcPauseMS []float64 // per job round
	cpiErr                             float64
	modelRounds, queryPasses           int
	clones, responseRuns               int
	traceRefs, sampleRefs, samples     int64

	soloFirst map[string]cpu.Result
	mixFirst  *mixOutcome
	jobSims   []simCase // the last job round's simulations, for the traced analysis
}

type mixOutcome struct {
	cmp *mix.Comparison
	agg obs.Aggregate
}

func newBench(ctx context.Context, sp spec, seed int64, log io.Writer) *bench {
	return &bench{
		sp:   sp,
		seed: seed,
		ctx:  ctx,
		log:  log,
		// Input IDs that are multiples of four keep the reference data
		// sizes and change only the inputs' random streams, so a seed
		// changes what is simulated but not how much.
		in:        workloads.Input{ID: int(4 * (seed & 0xff)), Scale: sp.scale},
		scfg:      sampler.Config{Period: sampler.DefaultConfig().Period, Seed: seed + 1},
		units:     map[string][]time.Duration{},
		unitRefs:  map[string]int64{},
		soloFirst: map[string]cpu.Result{},
	}
}

// timeUnit runs f as one repetition of the named unit.
func (b *bench) timeUnit(name string, f func()) {
	start := time.Now()
	f()
	b.units[name] = append(b.units[name], time.Since(start))
}

// floor returns one round's time and references over the units whose
// names start with prefix, taking each unit at its fastest repetition
// (times how often a round runs it).
func (b *bench) floor(prefix string) (time.Duration, int64) {
	var total time.Duration
	var refs int64
	for name, ds := range b.units {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		perRound := int64(max(len(ds)/max(b.rounds, 1), 1))
		total += slices.Min(ds) * time.Duration(perRound)
		refs += b.unitRefs[name] * perRound
	}
	return total, refs
}

// fastest sums the fastest repetition of each unit whose name starts with
// prefix, however often a round runs it.
func (b *bench) fastest(prefix string) time.Duration {
	var total time.Duration
	for name, ds := range b.units {
		if strings.HasPrefix(name, prefix) {
			total += slices.Min(ds)
		}
	}
	return total
}

// logUnits prints each unit's repetition count, fastest and median time,
// for people reading the log.
func (b *bench) logUnits() {
	names := make([]string, 0, len(b.units))
	for name := range b.units {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Fprintf(b.log, "%d job rounds\n", b.rounds)
	for _, name := range names {
		ds := b.units[name]
		secs := make([]float64, len(ds))
		for i, d := range ds {
			secs[i] = d.Seconds()
		}
		fmt.Fprintf(b.log, "unit %-40s %4d reps  fastest %9.4f s  median %9.4f s\n", name, len(ds), slices.Min(secs), median(secs))
	}
}

// order returns the order in which a query pass issues n queries: a
// permutation that changes from pass to pass, so that a slowdown tied to a
// point in the pass (a GC cycle, say) hits different queries each time and
// each query's fastest repetition escapes it.
func (b *bench) order(n int) []int {
	return rand.New(rand.NewSource(int64(b.queryPasses))).Perm(n)
}

// keepBest folds one round's latency of query q into the fastest so far.
func keepBest(best *[]float64, q int, us float64) {
	for len(*best) <= q {
		*best = append(*best, math.Inf(1))
	}
	(*best)[q] = min((*best)[q], us)
}

// record counts one operation and fails it on a non-nil error.
func (b *bench) record(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 10 {
			fmt.Fprintf(b.log, "perfbench: FAILED %s: %v\n", what, err)
		}
	}
}

func checkf(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// simRefs counts every reference a core issued to the hierarchy.
func simRefs(s memsys.CoreStats) int64 { return s.Loads + s.Stores + s.SWPrefIssued }

// setup builds, compiles and profiles every program, runs the baseline
// reference simulations the plans and the analytic error need, and
// prepares plans, variants, mixes and the static agreement score.
func (b *bench) setup() error {
	b.prof = pipeline.NewProfiler(b.scfg)
	b.bps = map[string]*pipeline.BenchProfile{}
	b.params = map[string][]core.Params{}
	ctx := b.ctx
	var err error
	for _, name := range b.sp.programs() {
		spec, serr := workloads.ByName(name)
		if serr != nil {
			return serr
		}
		var bp *pipeline.BenchProfile
		b.rec.do("pipeline.Profiler.Get", func() { bp, err = b.prof.Get(ctx, spec, b.in) })
		if err != nil {
			return err
		}
		b.bps[name] = bp
	}
	for _, name := range b.sp.programs() {
		for _, m := range machines {
			b.rec.do("pipeline.Measure", func() { _, err = b.bps[name].Measure(ctx, m) })
			if err != nil {
				return err
			}
		}
	}
	for _, name := range b.sp.solo {
		for _, m := range machines {
			for _, pol := range soloPolicies {
				if err := b.variant(name, m, pol); err != nil {
					return err
				}
			}
		}
	}
	for _, name := range b.sp.mixPool {
		for _, pol := range append([]pipeline.Policy{pipeline.Baseline}, mixPolicies...) {
			if err := b.variant(name, machines[0], pol); err != nil {
				return err
			}
		}
	}
	for _, name := range b.sp.model {
		if err := b.variant(name, machines[0], pipeline.Baseline); err != nil { // for the model mix
			return err
		}
		for _, m := range machines {
			var p core.Params
			b.rec.do("pipeline.AnalysisParams", func() { p, err = b.bps[name].AnalysisParams(ctx, m) })
			if err != nil {
				return err
			}
			b.params[name] = append(b.params[name], p)
		}
	}
	b.runner = &mix.Runner{Prof: b.prof, Mach: machines[0], ProfileInput: b.in, Pool: sched.Serial}
	if len(b.sp.mixPool) > 0 {
		mixes, err := mix.Generate(1, b.seed, b.sp.mixPool)
		if err != nil {
			return err
		}
		b.mix = mixes[0]
	}
	// Static agreement is pooled over several sampler seeds: at this scale
	// cigar's loads get few stride samples, and one seed's verdict on them
	// would swing the score between seeds.
	var agree, comparable int
	for k := int64(0); k < staticSeeds; k++ {
		sess := experiments.NewSession(experiments.Options{
			Scale: b.sp.scale, Seed: b.scfg.Seed + k*1_000_003, SamplerPeriod: b.scfg.Period,
			Benches: b.sp.model, Workers: 1, Out: io.Discard,
		})
		var sv *experiments.StaticValidateResult
		b.rec.do("experiments.StaticValidate", func() { sv, err = sess.StaticValidate(ctx) })
		if err != nil {
			return err
		}
		for _, row := range sv.Rows {
			agree += row.InsertAgree + row.StrideAgree
			comparable += 2 * row.Comparable
		}
		b.record("static agreement", checkf(len(sv.Skipped) == 0, "static-validate skipped %d rows", len(sv.Skipped)))
	}
	b.record("static agreement", checkf(comparable > 0, "no comparable loads"))
	if comparable > 0 {
		b.staticAgree = 100 * float64(agree) / float64(comparable)
	}
	return nil
}

// staticSeeds is how many sampler seeds the static agreement pools.
const staticSeeds = 4

// coreBuilds is how many times a model round builds its cold analytic
// cores; analytic_core_s takes each program's fastest build.
const coreBuilds = 3

func (b *bench) variant(name string, m machine.Machine, pol pipeline.Policy) error {
	var err error
	b.rec.do("pipeline.Variant", func() { _, err = b.bps[name].Variant(b.ctx, m, pol, b.in) })
	return err
}

// jobRound runs the workload's timed job once.
func (b *bench) jobRound() {
	b.jobSims = b.jobSims[:0]
	switch b.sp.name {
	case soloSim:
		b.soloRound()
	case mixSim:
		b.mixRound()
	default:
		b.modelRound()
	}
}

// soloRound runs every solo program on both machines under the baseline
// and SW+NT, each on a fresh one-core hierarchy with hardware prefetch off.
// Each run is one unit.
func (b *bench) soloRound() {
	for _, name := range b.sp.solo {
		bp := b.bps[name]
		for _, m := range machines {
			var base cpu.Result
			for _, pol := range soloPolicies {
				var res cpu.Result
				var err error
				key := fmt.Sprintf("%s/%s/%v", name, m.Name, pol)
				b.timeUnit("job/"+key, func() {
					b.rec.do("pipeline.RunSolo", func() { res, err = bp.RunSolo(b.ctx, m, pol, b.in) })
				})
				b.clones++
				if err == nil {
					b.unitRefs["job/"+key] = simRefs(res.Stats)
					err = b.sameAsFirstSolo(key, res)
					if pol == pipeline.Baseline {
						base = res
					} else {
						err = errors.Join(err, checkf(res.Stats.Loads+res.Stats.Stores == base.Stats.Loads+base.Stats.Stores,
							"SW+NT issued %d demand refs, baseline %d", res.Stats.Loads+res.Stats.Stores, base.Stats.Loads+base.Stats.Stores))
					}
					c, verr := bp.Variant(b.ctx, m, pol, b.in)
					err = errors.Join(err, verr)
					b.jobSims = append(b.jobSims, simCase{mach: m, policy: pol, progs: []*isa.Compiled{c}, want: []cpu.Result{res}})
				}
				b.record("solo "+key, err)
			}
		}
	}
}

func (b *bench) sameAsFirstSolo(key string, res cpu.Result) error {
	first, ok := b.soloFirst[key]
	if !ok {
		b.soloFirst[key] = res
		return nil
	}
	return checkf(reflect.DeepEqual(first, res), "result differs from the first round")
}

// mixRound runs the drawn mix under the baseline, HWPref and SW+NT on AMD,
// as one unit. Its refs come from the hierarchies' end state, so they
// include every reference simulated after an application's first
// completion.
func (b *bench) mixRound() {
	names := b.mix
	reg := obs.NewStats()
	b.runner.Obs = &obs.Obs{Stats: reg}
	var cmp *mix.Comparison
	var err error
	b.timeUnit("job/mix", func() {
		b.rec.do("mix.Runner.RunOne", func() { cmp, err = b.runner.RunOne(b.ctx, 0, names, mixPolicies) })
	})
	what := fmt.Sprintf("mix %v", names)
	if err != nil {
		b.record(what, err)
		return
	}
	agg := reg.Aggregate()
	b.unitRefs["job/mix"] = agg.L1.Hits + agg.L1.Misses + agg.SWIssued
	err = checkf(len(cmp.Skipped) == 0 && agg.Snapshots == int64(1+len(mixPolicies)), "mix ran %d of %d policies", agg.Snapshots, 1+len(mixPolicies))
	runs := append([]mix.Result{cmp.Base}, cmp.ByPolicy[mixPolicies[0]], cmp.ByPolicy[mixPolicies[1]])
	for _, r := range runs {
		for slot, app := range r.Apps {
			b.clones += 1 + app.Restarts
			base := cmp.Base.Apps[slot].Stats
			err = errors.Join(err, checkf(app.Stats.Loads+app.Stats.Stores == base.Loads+base.Stores,
				"%s slot %d: %v issued %d demand refs, baseline %d", what, slot, r.Policy, app.Stats.Loads+app.Stats.Stores, base.Loads+base.Stores))
		}
	}
	if b.mixFirst != nil {
		err = errors.Join(err, checkf(reflect.DeepEqual(b.mixFirst.cmp, cmp) && b.mixFirst.agg == agg, "%s differs from its first run", what))
	} else {
		b.mixFirst = &mixOutcome{cmp: cmp, agg: agg}
	}
	b.record(what, err)
	for _, r := range runs {
		progs := make([]*isa.Compiled, len(names))
		for slot, name := range names {
			c, verr := b.bps[name].Variant(b.ctx, machines[0], r.Policy, b.in)
			b.record("variant "+name, verr)
			progs[slot] = c
		}
		b.jobSims = append(b.jobSims, simCase{mach: machines[0], policy: r.Policy, progs: progs, want: r.Apps, restart: true})
	}
}

// modelRound is the model-tiers job: for each model program sampling
// passes and StatStack fits, the MDDLI and stride-centric plans, a cold
// analytic core, and then warm analytic and static queries.
//
// Each sampling pass has its own sampler seed (derived from the run's), and
// the analytic error and queries cycle over the models of all passes:
// Predict's cost and error depend on the sampled model, and one model per
// seed would make them vary between seeds more than the code does.
func (b *bench) modelRound() {
	type fit struct {
		samples *sampler.Samples
		model   *statstack.Model
	}
	b.modelRounds++
	fits := make([][]fit, len(b.sp.model))
	for i, name := range b.sp.model {
		c := b.bps[name].Compiled
		for pass := 0; pass < b.sp.samplingPasses; pass++ {
			cfg := b.scfg
			cfg.Seed += int64(pass) * 1_000_003
			s := sampler.New(cfg)
			var n int64
			var m *statstack.Model
			var samples *sampler.Samples
			b.timeUnit("model/sample/"+name, func() {
				b.rec.do("sampler.pass", func() { n = isa.Trace(c, s) })
				samples = s.Finish()
				b.rec.do("statstack.Build", func() { m = statstack.Build(samples) })
			})
			b.unitRefs["model/sample/"+name] = n
			fits[i] = append(fits[i], fit{samples, m})
			b.samples += int64(len(samples.Reuse) + len(samples.Strides) + len(samples.Cold))
			b.sampleRefs += n
			b.clones++
		}
	}
	for i, name := range b.sp.model {
		bp, f := b.bps[name], fits[i][0]
		b.timeUnit("model/plan/"+name, func() { b.plans(bp, f.model, f.samples, b.params[name]) })
	}

	// coldCores builds every program's analytic core from scratch, each
	// after a collection so that none pays for the garbage of the work
	// before it. Every rebuild after the first must give the same cores.
	var cores []analytic.Core
	coldCores := func() {
		fresh := make([]analytic.Core, len(b.sp.model))
		for i, name := range b.sp.model {
			runtime.GC()
			b.timeUnit("model/core/"+name, func() {
				b.rec.do("analytic.NewCore", func() { fresh[i] = analytic.NewCore(name, fits[i][0].model, fits[i][0].samples, b.bps[name].Compiled) })
			})
		}
		for _, c := range fresh {
			b.clones++ // CountRefs traces the program once
			for _, r := range c.Resps {
				runs := 1 + len(r.UniformLats)
				for _, lats := range r.DepthLats {
					runs += len(lats)
				}
				b.responseRuns += runs
				b.clones += runs
			}
		}
		if cores == nil {
			cores = fresh
			return
		}
		b.record("analytic cores", checkf(reflect.DeepEqual(cores, fresh), "a cold rebuild of the analytic cores differs from the first"))
	}
	coldCores()

	// variant returns program i's core with the model of sampling pass k;
	// the latency responses do not depend on the samples.
	variant := func(i, k int) analytic.Core {
		c := cores[i]
		c.Model = fits[i][k%len(fits[i])].model
		return c
	}

	// Mean relative error of the analytic solo CPI against the simulated
	// baseline (the setup's reference runs); deterministic for a seed.
	var errSum float64
	var errN int
	for i, name := range b.sp.model {
		for _, m := range machines {
			ms, err := b.bps[name].Measure(b.ctx, m)
			for k := range fits[i] {
				p := analytic.Predict(m, []analytic.Core{variant(i, k)})
				err = errors.Join(err, predictionErr(p, 1))
				if err == nil {
					sim := float64(ms.Result.Cycles) / float64(ms.Result.Instructions)
					errSum += math.Abs(p.Cores[0].CPI-sim) / sim * 100
					errN++
				}
			}
			b.record("analytic error "+name, err)
		}
	}
	cpiErr := errSum / float64(max(errN, 1))
	if b.modelRounds > 1 {
		b.record("analytic error", checkf(cpiErr == b.cpiErr, "analytic error %v differs from the first round's %v", cpiErr, b.cpiErr))
	}
	b.cpiErr = cpiErr

	// The later cold builds are spread between the query passes, so that
	// the repetitions of this multi-second unit sample more of the run.
	built := 1
	for pass := 0; pass < b.sp.queryPasses; pass++ {
		for built < coreBuilds && built*b.sp.queryPasses <= pass*coreBuilds {
			coldCores()
			built++
		}
		b.queryPass(len(cores), variant)
	}
	for ; built < coreBuilds; built++ {
		coldCores()
	}
}

// queryPass times every warm query once. Passes repeat the same queries
// in different orders, and each query keeps its fastest time.
func (b *bench) queryPass(cores int, variant func(i, k int) analytic.Core) {
	b.queryPasses++
	// A collection before each query block keeps the block's own
	// allocation under the next GC target, so no collection runs beside the
	// timed queries.
	runtime.GC()
	b.timeUnit("model/query/solo", func() {
		slots := oddSlots(cores, len(machines))
		for _, q := range b.order(b.sp.soloQueries) {
			sl := slots[q%len(slots)]
			c := []analytic.Core{variant(sl[0], q/len(slots))}
			m := machines[sl[1]]
			var p analytic.Prediction
			t := time.Now()
			b.rec.do("analytic.Predict", func() { p = analytic.Predict(m, c) })
			keepBest(&b.soloBest, q, micros(time.Since(t)))
			b.record("analytic solo query", predictionErr(p, 1))
		}
	})
	runtime.GC()
	b.timeUnit("model/query/mix", func() {
		four := make([]analytic.Core, 4)
		slots := oddSlots(cores, len(machines))
		for _, q := range b.order(b.sp.mixQueries) {
			sl := slots[q%len(slots)]
			for i := range four {
				four[i] = variant((sl[0]+i)%cores, q/len(slots)+i)
			}
			m := machines[sl[1]]
			var p analytic.Prediction
			t := time.Now()
			b.rec.do("analytic.Predict", func() { p = analytic.Predict(m, four) })
			keepBest(&b.mixBest, q, micros(time.Since(t)))
			b.record("analytic mix query", predictionErr(p, 4))
		}
	})
	sizes := statstack.StandardSizes()
	runtime.GC()
	b.timeUnit("model/query/static", func() {
		slots := oddSlots(len(b.sp.model), 1)
		for _, q := range b.order(b.sp.staticQueries) {
			c := b.bps[b.sp.model[slots[q%len(slots)][0]]].Compiled
			var prof *staticprof.Profile
			var mrc []float64
			var err error
			t := time.Now()
			b.rec.do("staticprof.Analyze", func() { prof, err = staticprof.Analyze(c, stridecentric.DefaultParams()) })
			if err == nil {
				b.rec.do("staticprof.MRC", func() { mrc = prof.MRC(sizes) })
				err = checkf(finite(mrc...) && len(mrc) == len(sizes), "bad static MRC")
			}
			keepBest(&b.staticBest, q, micros(time.Since(t)))
			b.record("static query", err)
		}
	})
}

// oddSlots lists the (program, machine) index pairs a query loop cycles
// over, repeating the first pair when the count is even: with an odd
// number of equally frequent kinds of query the median falls inside one
// kind, never on the gap between two kinds of different cost.
func oddSlots(programs, machines int) [][2]int {
	var out [][2]int
	for p := 0; p < programs; p++ {
		for m := 0; m < machines; m++ {
			out = append(out, [2]int{p, m})
		}
	}
	if len(out)%2 == 0 {
		out = append(out, out[0])
	}
	return out
}

// plans computes one fresh profile's MRC and its MDDLI (per machine) and
// stride-centric plans.
func (b *bench) plans(bp *pipeline.BenchProfile, model *statstack.Model, samples *sampler.Samples, params []core.Params) {
	var mrc []float64
	b.rec.do("statstack.MRC", func() { mrc = model.MRC(statstack.StandardSizes()) })
	b.record("statstack MRC "+bp.Spec.Name, checkf(finite(mrc...), "non-finite MRC"))
	for _, p := range params {
		p.EnableNT = true
		var plan *core.Plan
		b.rec.do("core.Analyze", func() { plan = core.Analyze(bp.Compiled, model, samples, p) })
		b.record("core.Analyze "+bp.Spec.Name, checkf(plan != nil && len(plan.Loads) > 0, "empty plan"))
	}
	var plan *core.Plan
	b.rec.do("stridecentric.Analyze", func() { plan = stridecentric.Analyze(bp.Compiled, samples, stridecentric.DefaultParams()) })
	b.record("stridecentric.Analyze "+bp.Spec.Name, checkf(plan != nil && len(plan.Loads) > 0, "empty plan"))
}

func predictionErr(p analytic.Prediction, cores int) error {
	if len(p.Cores) != cores {
		return fmt.Errorf("prediction has %d cores, want %d", len(p.Cores), cores)
	}
	for _, c := range p.Cores {
		if !finite(c.CPI, c.MR1, c.MR2, c.MRLLC, c.BandwidthGBps, c.Slowdown) || c.CPI <= 0 {
			return fmt.Errorf("bad prediction for %s: CPI %v", c.Name, c.CPI)
		}
	}
	return nil
}

// resetSamples drops the measurements taken so far (the warm-up round's).
func (b *bench) resetSamples() {
	clear(b.units)
	b.soloBest, b.mixBest, b.staticBest = nil, nil, nil
	b.rounds = 0
	b.wall, b.allocMB, b.gcCycles, b.gcPauseMS = nil, nil, nil, nil
	b.modelRounds, b.clones, b.responseRuns, b.sampleRefs, b.samples = 0, 0, 0, 0, 0
}

// timedRound runs one job round after a GC and records its wall time,
// allocation and GC activity.
func (b *bench) timedRound() {
	runtime.GC()
	m0 := readMem()
	start := time.Now()
	b.jobRound()
	d := time.Since(start)
	m1 := readMem()
	b.rounds++
	b.wall = append(b.wall, d.Seconds())
	b.allocMB = append(b.allocMB, float64(m1.alloc-m0.alloc)/1e6)
	b.gcCycles = append(b.gcCycles, float64(m1.gcs-m0.gcs))
	b.gcPauseMS = append(b.gcPauseMS, float64(m1.pauseNs-m0.pauseNs)/1e6)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// side is the work between job rounds that measures the metrics the job
// itself does not: a model round after a simulation job, and the reference
// simulations after a model-tiers job. Interleaving spreads both over the
// whole run, through the host's quiet and loud phases.
func (b *bench) side() {
	runtime.GC()
	if b.sp.name != modelTiers {
		b.modelRound()
		return
	}
	for _, name := range b.sp.model {
		bp := b.bps[name]
		for _, m := range machines {
			var res cpu.Result
			var err error
			unit := "side/refsim/" + name + "/" + m.Name
			b.timeUnit(unit, func() {
				b.rec.do("pipeline.RunSolo", func() { res, err = bp.RunSolo(b.ctx, m, pipeline.Baseline, b.in) })
			})
			b.unitRefs[unit] = simRefs(res.Stats)
			ms, merr := bp.Measure(b.ctx, m)
			b.record("reference run "+name, errors.Join(err, merr, checkf(reflect.DeepEqual(res, ms.Result), "differs from the setup's run")))
		}
	}
}

// measure is the untraced run: repeated setup, a discarded warm-up round,
// then job rounds, each followed by side work, until the time budget is
// spent.
func (b *bench) measure(budget time.Duration) (map[string]metric, error) {
	for i := 0; i < b.sp.setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
	}
	b.jobRound()
	b.side()
	b.resetSamples()
	deadline := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		b.timedRound()
		b.side()
	}
	b.logUnits()
	simT, simRefs := b.floor("job/")
	wall := simT
	if b.sp.name == modelTiers {
		wall, _ = b.floor("model/")
		simT, simRefs = b.floor("side/refsim/")
	}
	sampleT, sampleRefs := b.floor("model/sample/")
	coreT := b.fastest("model/core/")
	soloP99, _ := tailPercentile(b.soloBest, 0.99)
	mixP99, _ := tailPercentile(b.mixBest, 0.99)
	staticP99, _ := tailPercentile(b.staticBest, 0.99)
	return map[string]metric{
		"setup_s":              {median(b.setupS), "s"},
		"wall_s":               {wall.Seconds(), "s"},
		"sim_mrefs_per_s":      {float64(simRefs) / simT.Seconds() / 1e6, "Mref/s"},
		"profile_mrefs_per_s":  {float64(sampleRefs) / sampleT.Seconds() / 1e6, "Mref/s"},
		"analytic_core_s":      {coreT.Seconds(), "s"},
		"analytic_solo_us_p50": {median(b.soloBest), "us"},
		"analytic_solo_us_p99": {soloP99, "us"},
		"analytic_mix_us_p50":  {median(b.mixBest), "us"},
		"analytic_mix_us_p99":  {mixP99, "us"},
		"static_us_p50":        {median(b.staticBest), "us"},
		"static_us_p99":        {staticP99, "us"},
		"alloc_mb":             {median(b.allocMB), "MB"},
		"max_rss_mb":           {maxRSSMB(), "MB"},
		"analytic_cpi_err_pct": {b.cpiErr, "%"},
		"static_agree_pct":     {b.staticAgree, "%"},
	}, nil
}
