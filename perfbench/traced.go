package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"prefetchlab/internal/analytic"
	"prefetchlab/internal/cache"
	"prefetchlab/internal/cpu"
	"prefetchlab/internal/isa"
	"prefetchlab/internal/machine"
	"prefetchlab/internal/memsys"
	"prefetchlab/internal/mix"
	"prefetchlab/internal/obs"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/ref"
)

// simCase is one simulation of a job round: the programs one hierarchy ran
// and the results the engine returned for them.
type simCase struct {
	mach    machine.Machine
	policy  pipeline.Policy
	progs   []*isa.Compiled
	want    []cpu.Result
	restart bool // mix methodology (cpu.RunMix) rather than cpu.RunSingle
}

// access is one reference of a recorded run: which core issued it, when,
// and the stall the hierarchy returned.
type access struct {
	now   int64
	addr  uint64
	stall int64
	pc    ref.PC
	core  uint8
	kind  ref.Kind
}

func (a access) ref() ref.Ref { return ref.Ref{PC: a.pc, Addr: a.addr, Kind: a.kind} }

// tracedLoop runs progs on h exactly as cpu.RunSingle (restart false) or
// cpu.RunMix (restart true) do, through the same public VM and hierarchy
// calls, and records every access. It returns the per-core results, the
// recording and the run's makespan in cycles.
func tracedLoop(h *memsys.Hierarchy, progs []*isa.Compiled, restart bool, rec []access) ([]cpu.Result, []access, int64) {
	type coreRun struct {
		vm             *isa.VM
		base           int64
		done, finished bool
		res            cpu.Result
	}
	cores := make([]coreRun, len(progs))
	h.SetPrivateLines(restart)
	for i, p := range progs {
		cores[i].vm = isa.NewVM(p)
		if w := h.Config().OOOWindow; w > 0 {
			cores[i].vm.SetWindow(w)
		}
		cores[i].res.Name = p.Prog.Name
		h.SetCorePCs(i, p.NumPCs())
	}
	var makespan int64
	for remaining := len(cores); remaining > 0; {
		ci := -1
		var min int64
		for i := range cores {
			if clk := cores[i].base + cores[i].vm.Cycles(); !cores[i].finished && (ci < 0 || clk < min) {
				ci, min = i, clk
			}
		}
		if ci < 0 {
			break
		}
		cr := &cores[ci]
		ev := cr.vm.NextEvent()
		now := cr.base + cr.vm.Cycles()
		if !ev.Done {
			stall := h.Access(ci, now, ev.Ref)
			if ev.Ref.Kind.IsPrefetch() {
				stall = 0
			}
			rec = append(rec, access{now: now, addr: ev.Ref.Addr, stall: stall, pc: ev.Ref.PC, core: uint8(ci), kind: ev.Ref.Kind})
			cr.vm.Complete(stall)
			continue
		}
		if now > makespan {
			makespan = now
		}
		if !cr.done {
			cr.done = true
			cr.res.Cycles = now
			cr.res.Instructions = cr.vm.Instructions()
			cr.res.MemRefs = cr.vm.MemRefs()
			cr.res.Stats = h.CoreStats(ci)
			remaining--
		} else {
			cr.res.Restarts++
		}
		if restart && remaining > 0 {
			cr.base += cr.vm.Cycles()
			cr.vm.Reset()
		} else {
			cr.finished = true
		}
	}
	out := make([]cpu.Result, len(cores))
	for i := range cores {
		out[i] = cores[i].res
	}
	return out, rec, makespan
}

// vmReplay re-executes the recorded run's programs with no memory system:
// each VM receives the stalls the hierarchy returned in the recording. It
// checks that the VMs issue the recorded references.
func vmReplay(progs []*isa.Compiled, window int64, rec []access) error {
	vms := make([]*isa.VM, len(progs))
	for i, p := range progs {
		vms[i] = isa.NewVM(p)
		if window > 0 {
			vms[i].SetWindow(window)
		}
	}
	var bad int
	for _, a := range rec {
		vm := vms[a.core]
		ev := vm.NextEvent()
		if ev.Done {
			vm.Reset()
			ev = vm.NextEvent()
		}
		if ev.Ref != a.ref() {
			bad++
		}
		vm.Complete(a.stall)
	}
	return checkf(bad == 0, "VM replay diverged on %d of %d references", bad, len(rec))
}

// newHierarchy builds a fresh hierarchy for c's machine with hardware
// prefetch on or off, set up for the recorded run's cores.
func newHierarchy(c simCase, hw bool) (*memsys.Hierarchy, error) {
	h, err := memsys.New(c.mach.MemConfig(len(c.progs), hw))
	if err != nil {
		return nil, err
	}
	h.SetPrivateLines(c.restart)
	for i, p := range c.progs {
		h.SetCorePCs(i, p.NumPCs())
	}
	return h, nil
}

// memReplay feeds the recording into h at the recorded times.
func memReplay(h *memsys.Hierarchy, rec []access) {
	for _, a := range rec {
		h.Access(int(a.core), a.now, a.ref())
	}
}

// cacheReplay replays a line stream into a standalone cache of geometry
// cfg (Lookup, then Insert on a miss) and returns the time of that pass,
// the time of a second Lookup-only pass over the warmed cache, and the
// number of misses of the first pass.
func cacheReplay(cfg cache.Config, lines []uint64) (full, lookups time.Duration, misses int64, err error) {
	c, err := cache.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	for i, l := range lines {
		if _, ok := c.Lookup(l, int64(i)); !ok {
			c.Insert(l, int64(i), cache.FillOpts{Used: true})
			misses++
		}
	}
	full = time.Since(start)
	start = time.Now()
	for i, l := range lines {
		c.Lookup(l, int64(i))
	}
	return full, time.Since(start), misses, nil
}

// cacheGeom names one standalone-cache replay geometry.
type cacheGeom struct {
	name string
	cfg  cache.Config
}

func cacheGeoms() []cacheGeom {
	var out []cacheGeom
	for _, m := range machines {
		out = append(out, cacheGeom{tag(m) + "_l1", m.L1}, cacheGeom{tag(m) + "_llc", m.LLC})
	}
	return out
}

func tag(m machine.Machine) string {
	if m.Name == machines[0].Name {
		return "amd"
	}
	return "intel"
}

// budget accumulates the decomposition of a job's simulations.
type budget struct {
	refs, accesses          int64
	run, vm, memOrig        time.Duration
	memOff, memOn           time.Duration
	cacheFull, cacheLookups map[string]time.Duration
	cacheLines, cacheMisses map[string]int64

	demand, l1Miss, l2Miss, llcMiss, stall int64
	evictions, useless                     int64
	hwIssued, hwUselessL2                  int64
	dramTransfers, dramQueue               int64
	dramBytes                              int64
	simSeconds                             float64
	restarts                               int64
}

func newBudget() *budget {
	return &budget{
		cacheFull: map[string]time.Duration{}, cacheLookups: map[string]time.Duration{},
		cacheLines: map[string]int64{}, cacheMisses: map[string]int64{},
	}
}

// decompose times one simulation case layer by layer: the engine's own run
// (cpu.RunSingle or cpu.RunMix), the traced loop, a VM-only replay, the
// hierarchy replayed with hardware prefetch off and on, and the line
// stream replayed into standalone caches. It checks that the traced loop
// reproduces the engine's results and that the replay with the original
// configuration reproduces the hierarchy's statistics.
func (b *bench) decompose(c simCase, bu *budget) error {
	hw := c.policy.UsesHW()
	h, err := newHierarchy(c, hw)
	if err != nil {
		return err
	}
	var got []cpu.Result
	start := time.Now()
	b.rec.do("cpu.Run", func() {
		if c.restart {
			got, err = cpu.RunMix(h, c.progs)
		} else {
			var r cpu.Result
			r, err = cpu.RunSingle(c.progs[0], h)
			got = []cpu.Result{r}
		}
	})
	run := time.Since(start)
	if err != nil {
		return err
	}
	err = checkf(reflect.DeepEqual(got, c.want), "cpu run differs from the job's result")

	th, herr := newHierarchy(c, hw)
	if herr != nil {
		return herr
	}
	var traced []cpu.Result
	var rec []access
	var makespan int64
	b.rec.do("cpu.tracedLoop", func() { traced, rec, makespan = tracedLoop(th, c.progs, c.restart, nil) })
	err = errors.Join(err, checkf(reflect.DeepEqual(traced, c.want), "traced loop differs from the engine's %v run", c.policy))
	want := obs.CaptureMachine(c.mach.Name, th, traced)

	start = time.Now()
	b.rec.do("isa.replay", func() { err = errors.Join(err, vmReplay(c.progs, c.mach.Window, rec)) })
	vm := time.Since(start)

	for _, on := range []bool{false, true} {
		rh, herr := newHierarchy(c, on)
		if herr != nil {
			return herr
		}
		start = time.Now()
		b.rec.do("memsys.replay", func() { memReplay(rh, rec) })
		d := time.Since(start)
		if on {
			bu.memOn += d
			for i := range c.progs {
				s := rh.CoreStats(i)
				_, l2 := rh.CoreCacheStats(i)
				bu.hwIssued += s.HWPrefIssued
				bu.hwUselessL2 += l2.UselessHW
			}
		} else {
			bu.memOff += d
		}
		if on == hw {
			bu.memOrig += d
			got := obs.CaptureMachine(c.mach.Name, rh, traced)
			err = errors.Join(err, checkf(reflect.DeepEqual(got, want), "%v hierarchy replay differs from the recorded run", c.policy))
		}
		levels := []cache.Stats{rh.LLC().Stats()}
		for i := range c.progs {
			l1, l2 := rh.CoreCacheStats(i)
			levels = append(levels, l1, l2)
		}
		for _, s := range levels {
			bu.useless += s.UselessSW + s.UselessHW
			bu.evictions += s.Evictions
		}
	}

	lines := make([]uint64, len(rec))
	for i, a := range rec {
		lines[i] = a.addr >> ref.LineBits
		if c.restart {
			lines[i] |= uint64(a.core) << 48
		}
	}
	for _, g := range cacheGeoms() {
		var full, look time.Duration
		var misses int64
		var cerr error
		b.rec.do("cache.replay", func() { full, look, misses, cerr = cacheReplay(g.cfg, lines) })
		if cerr != nil {
			return cerr
		}
		bu.cacheFull[g.name] += full
		bu.cacheLookups[g.name] += look
		bu.cacheLines[g.name] += int64(len(lines))
		bu.cacheMisses[g.name] += misses
	}

	bu.run += run
	bu.vm += vm
	bu.accesses += int64(len(rec))
	for i := range c.progs {
		s := th.CoreStats(i)
		bu.refs += simRefs(s)
		bu.demand += s.Loads + s.Stores
		bu.l1Miss += s.L1Misses
		bu.l2Miss += s.L2Misses
		bu.llcMiss += s.LLCMisses
		bu.stall += s.LoadStallCycles
		bu.restarts += int64(traced[i].Restarts)
	}
	d := th.Channel().Stats()
	bu.dramTransfers += d.Transfers
	bu.dramQueue += d.QueueDelay
	bu.dramBytes += d.Bytes
	bu.simSeconds += float64(makespan) / (c.mach.FreqGHz * 1e9)
	return err
}

// perLayer is the traced run. It sets up once with spans on, alternates
// untraced and spanned job rounds for the time budget (the difference of
// their medians is the tracing overhead), runs a spanned model round where the job has none,
// and then decomposes the job's simulations layer by layer. Spans are
// written to chromePath in Chrome trace_event form.
func (b *bench) perLayer(budget time.Duration, chromePath string) (map[string]metric, error) {
	rec := newRecorder()
	b.rec = rec
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	b.rec = nil
	b.jobRound() // warm-up
	// Untraced and traced rounds alternate, at least twice, until the time
	// budget is spent; only the last traced round's spans are kept.
	var untraced, traced []float64
	var gcCycles, gcPause float64
	setupSpans := len(rec.spans)
	deadline := time.Now().Add(budget)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		b.rec = nil
		b.resetSamples()
		b.timedRound()
		untraced = append(untraced, b.wall[0])
		gcCycles, gcPause = b.gcCycles[0], b.gcPauseMS[0]
		rec.spans = rec.spans[:setupSpans]
		b.rec = rec
		rec.run = 1
		b.resetSamples()
		b.timedRound()
		traced = append(traced, b.wall[0])
	}
	overhead := median(traced) - median(untraced)
	sims := append([]simCase(nil), b.jobSims...)
	clones := b.clones
	if b.sp.name == modelTiers {
		// The job simulates nothing; decompose the setup's reference runs.
		for _, name := range b.sp.model {
			for _, m := range machines {
				ms, err := b.bps[name].Measure(b.ctx, m)
				if err != nil {
					return nil, err
				}
				sims = append(sims, simCase{mach: m, policy: pipeline.Baseline, progs: []*isa.Compiled{b.bps[name].Compiled}, want: []cpu.Result{ms.Result}})
			}
		}
	} else {
		b.modelRound()
	}
	if b.sp.name != mixSim {
		// The model programs' mix under the baseline and HWPref, decomposed
		// with the rest, so that the mix layer, restarts and contention are
		// measured on every workload.
		names := b.sp.modelMix()
		var cmp *mix.Comparison
		var err error
		b.rec.do("mix.Runner.RunOne", func() { cmp, err = b.runner.RunOne(b.ctx, 0, names, []pipeline.Policy{pipeline.HWPref}) })
		b.record("model mix", err)
		if err == nil {
			for _, r := range []mix.Result{cmp.Base, cmp.ByPolicy[pipeline.HWPref]} {
				progs := make([]*isa.Compiled, len(names))
				for slot, name := range names {
					progs[slot], err = b.bps[name].Variant(b.ctx, machines[0], r.Policy, b.in)
					b.record("variant "+name, err)
				}
				sims = append(sims, simCase{mach: machines[0], policy: r.Policy, progs: progs, want: r.Apps, restart: true})
			}
		}
	}
	rec.run = 2
	b.layerProbes()

	bu := newBudget()
	rec.run = 3
	for _, c := range sims {
		runtime.GC()
		b.record(fmt.Sprintf("decompose %s %v %d-core", c.mach.Name, c.policy, len(c.progs)), b.decompose(c, bu))
	}
	b.rec = nil
	if err := rec.writeChrome(chromePath); err != nil {
		return nil, err
	}
	return b.layerMetrics(rec, bu, clones, overhead, gcCycles, gcPause), nil
}

// layerProbes times the calls the job makes inside other calls or during
// setup: a functional trace with no sink work, compilation, memory-image
// cloning and the analytic instruction count.
func (b *bench) layerProbes() {
	nop := isa.SinkFunc(func(ref.Ref) {})
	for _, name := range b.sp.model { // the programs the sampling pass traces
		for i := 0; i < 3; i++ {
			var n int64
			b.rec.do("isa.Trace", func() { n = isa.Trace(b.bps[name].Compiled, nop) })
			b.traceRefs += n
		}
		b.rec.do("analytic.CountRefs", func() { analytic.CountRefs(b.bps[name].Compiled) })
	}
	for _, name := range b.sp.programs() {
		bp := b.bps[name]
		for i := 0; i < 3; i++ {
			var err error
			b.rec.do("isa.Compile", func() { _, err = isa.Compile(bp.Prog) })
			b.record("compile "+name, err)
			b.rec.do("isa.Memory.Clone", func() { bp.Prog.Mem.Clone() })
		}
	}
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"pipeline", "experiments", "mix", "cpu", "isa", "memsys", "cache", "sampler", "statstack", "core", "stridecentric", "staticprof", "analytic"}

func (b *bench) layerMetrics(rec *recorder, bu *budget, clones int, overhead, gcCycles, gcPause float64) map[string]metric {
	per := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	pct := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return 100 * float64(num) / float64(den)
	}
	// Sampling-pass time per reference, less the bare functional trace.
	_, passT := rec.stat("sampler.pass")
	_, traceT := rec.stat("isa.Trace")
	traceNs := per(traceT, b.traceRefs)
	samplerNs := per(passT, b.sampleRefs) - traceNs
	_, coreT := rec.stat("analytic.NewCore")
	_, countT := rec.stat("analytic.CountRefs")
	rounds := float64(b.modelRounds)
	builds := rounds * float64(coreBuilds)
	var inserted, nt float64
	for _, name := range b.sp.programs() {
		for _, m := range machines {
			pl, err := b.bps[name].PlansFor(b.ctx, m)
			if err != nil {
				continue
			}
			for _, in := range pl.SWNT.Insertions {
				inserted++
				if in.NTA {
					nt++
				}
			}
		}
	}
	out := map[string]metric{
		"isa.vm_ns_per_ref":           {per(bu.vm, bu.refs), "ns"},
		"isa.trace_ns_per_ref":        {traceNs, "ns"},
		"isa.clone_us":                {rec.meanUS("isa.Memory.Clone"), "us"},
		"isa.clones":                  {float64(clones), "count"},
		"isa.compile_us":              {rec.meanUS("isa.Compile"), "us"},
		"sampler.ns_per_ref":          {samplerNs, "ns"},
		"sampler.samples":             {float64(b.samples) / float64(b.sp.samplingPasses) / rounds, "count"},
		"statstack.build_us":          {rec.meanUS("statstack.Build"), "us"},
		"statstack.mrc_us":            {rec.meanUS("statstack.MRC"), "us"},
		"core.analyze_us":             {rec.meanUS("core.Analyze"), "us"},
		"stridecentric.analyze_us":    {rec.meanUS("stridecentric.Analyze"), "us"},
		"core.inserted":               {inserted, "count"},
		"core.nt":                     {nt, "count"},
		"staticprof.analyze_us":       {rec.meanUS("staticprof.Analyze"), "us"},
		"staticprof.mrc_us":           {rec.meanUS("staticprof.MRC"), "us"},
		"analytic.response_s":         {(coreT.Seconds() - countT.Seconds()) / builds, "s"},
		"analytic.response_runs":      {float64(b.responseRuns) / builds, "count"},
		"memsys.ns_per_access_hwoff":  {per(bu.memOff, bu.accesses), "ns"},
		"memsys.ns_per_access_hwon":   {per(bu.memOn, bu.accesses), "ns"},
		"memsys.l1_miss_pct":          {pct(bu.l1Miss, bu.demand), "%"},
		"memsys.l2_miss_pct":          {pct(bu.l2Miss, bu.demand), "%"},
		"memsys.llc_miss_pct":         {pct(bu.llcMiss, bu.demand), "%"},
		"memsys.stall_cycles_per_ref": {float64(bu.stall) / float64(max(bu.refs, 1)), "cycles"},
		"cache.useless_prefetch_pct":  {pct(bu.useless, bu.evictions), "%"},
		"hwpref.issued":               {float64(bu.hwIssued), "count"},
		"hwpref.useful_pct":           {100 - pct(bu.hwUselessL2, bu.hwIssued), "%"},
		"dram.transfers":              {float64(bu.dramTransfers), "count"},
		"dram.gbps":                   {float64(bu.dramBytes) / bu.simSeconds / 1e9, "GB/s"},
		"dram.backlog_cycles":         {float64(bu.dramQueue) / float64(max(bu.dramTransfers, 1)), "cycles"},
		"cpu.run_ns_per_ref":          {per(bu.run, bu.refs), "ns"},
		"cpu.loop_ns_per_ref":         {per(bu.run-bu.vm-bu.memOrig, bu.refs), "ns"},
		"cpu.restarts":                {float64(bu.restarts), "count"},
		"pipeline.profile_ms":         {rec.meanUS("pipeline.Profiler.Get") / 1e3, "ms"},
		"pipeline.variant_ms":         {rec.meanUS("pipeline.Variant") / 1e3, "ms"},
		"mix.runone_s":                {rec.meanUS("mix.Runner.RunOne") / 1e6, "s"},
		"go.gc_cycles":                {gcCycles, "count"},
		"go.gc_pause_ms":              {gcPause, "ms"},
		"trace.overhead_s":            {overhead, "s"},
	}
	for _, g := range cacheGeoms() {
		look := per(bu.cacheLookups[g.name], bu.cacheLines[g.name])
		out["cache."+g.name+"_lookup_ns"] = metric{look, "ns"}
		ins := time.Duration(float64(bu.cacheFull[g.name]) - look*float64(bu.cacheLines[g.name]))
		out["cache."+g.name+"_insert_ns"] = metric{per(ins, bu.cacheMisses[g.name]), "ns"}
	}
	self := rec.selfTime()
	for _, l := range selfLayers {
		out[l+".self_s"] = metric{self[l].Seconds(), "s"}
	}
	return out
}
