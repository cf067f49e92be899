package analytic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prefetchlab/internal/machine"
	"prefetchlab/internal/ref"
	"prefetchlab/internal/sampler"
	"prefetchlab/internal/statstack"
)

// The reference below is the fixed point as it was written before its
// loop invariants were hoisted: every depth-response value re-interpolated
// at every use, every depth located from scratch, responses copied by
// value. Predict must reproduce it bit for bit.

func refExtraAt(r LatencyResponse, depth, lat float64) float64 {
	if len(r.Depths) == 0 {
		return 0
	}
	return refInterpDepth(r.Depths, depth, func(d int) float64 {
		return interpResponse(r.DepthLats[d], r.Extra[d], lat)
	})
}

func refBatchWAt(r LatencyResponse, depth float64) float64 {
	if len(r.BatchW) != len(r.Depths) || len(r.Depths) == 0 {
		return 1
	}
	w := refInterpDepth(r.Depths, depth, func(d int) float64 { return r.BatchW[d] })
	if w < 1 {
		return 1
	}
	return w
}

func refInterpDepth(depths []int64, depth float64, at func(d int) float64) float64 {
	nd := len(depths)
	if depth <= float64(depths[0]) || nd == 1 {
		return at(0)
	}
	if depth >= float64(depths[nd-1]) {
		return at(nd - 1)
	}
	x := math.Log(depth)
	for d := 1; d < nd; d++ {
		hi := float64(depths[d])
		if depth <= hi {
			lo := float64(depths[d-1])
			t := (x - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
			return at(d-1) + t*(at(d)-at(d-1))
		}
	}
	return at(nd - 1)
}

func refRespFor(c Core, mach machine.Machine) LatencyResponse {
	if len(c.Resps) == 0 {
		return LatencyResponse{}
	}
	best, bestDist := 0, int64(-1)
	for i, r := range c.Resps {
		if r.Window == mach.Window {
			return r
		}
		d := r.Window - mach.Window
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return c.Resps[best]
}

type refState struct {
	model                    *statstack.Model
	resp                     LatencyResponse
	instr, refsPerIn, wbFrac float64
	mr1, mr2, hitCPI         float64
	cpi, occ, mrLLC, bwCore  float64
}

func refPredict(mach machine.Machine, cores []Core) Prediction {
	out := Prediction{Machine: mach.Name}
	if len(cores) == 0 {
		return out
	}
	states := make([]refState, len(cores))
	for i, c := range cores {
		states[i] = refNewState(mach, c, int64(len(cores)))
	}
	util := refIterate(mach, states)
	out.BusUtilization = util
	for i, c := range cores {
		st := &states[i]
		cp := CorePrediction{
			Name:           c.Name,
			CPI:            st.cpi,
			Cycles:         int64(st.cpi * st.instr),
			MR1:            st.mr1,
			MR2:            st.mr2,
			MRLLC:          st.mrLLC,
			OccupancyBytes: int64(st.occ),
			BandwidthGBps:  mach.GBps(st.bwCore),
			Slowdown:       1,
		}
		fetch := st.refsPerIn / st.cpi * st.mrLLC * ref.LineSize
		cp.PrefetchGBps = mach.GBps(fetch * c.StridedFrac)
		out.TotalBandwidthGBps += cp.BandwidthGBps
		out.Cores = append(out.Cores, cp)
	}
	if len(cores) > 1 {
		for i, c := range cores {
			solo := refPredict(mach, []Core{c})
			if soloCPI := solo.Cores[0].CPI; soloCPI > 0 {
				out.Cores[i].Slowdown = out.Cores[i].CPI / soloCPI
			}
		}
	}
	return out
}

func refNewState(mach machine.Machine, c Core, n int64) refState {
	st := refState{
		model: c.Model,
		resp:  refRespFor(c, mach),
		instr: float64(c.Counts.Instructions),
		occ:   float64(mach.LLC.Size) / float64(n),
	}
	if st.instr < 1 {
		st.instr = 1
	}
	var loadsPerIn float64
	if refs := c.Counts.Refs(); refs > 0 {
		st.refsPerIn = float64(refs) / st.instr
		loadsPerIn = float64(c.Counts.Loads) / st.instr
		st.wbFrac = float64(c.Counts.Stores) / float64(refs)
	}
	base := st.resp.BaseCPI
	if base < 1 {
		base = 1
	}
	st.hitCPI = base + loadsPerIn*interpResponse(st.resp.UniformLats, st.resp.Uniform, float64(mach.L1Lat-1))
	st.cpi = st.hitCPI
	if c.Model != nil {
		st.mr1 = c.Model.MissRatio(mach.L1.Size)
		st.mr2 = math.Min(st.mr1, c.Model.MissRatio(mach.L2.Size))
		st.mrLLC = math.Min(st.mr2, c.Model.MissRatio(int64(st.occ)))
	}
	return st
}

func refIterate(mach machine.Machine, states []refState) float64 {
	llcSize := float64(mach.LLC.Size)
	occCycles := math.Floor(float64(ref.LineSize)/mach.DRAM.BytesPerCycle + 0.5)
	if occCycles < 1 {
		occCycles = 1
	}
	util := 0.0
	for it := 0; it < Iterations; it++ {
		var totalIns float64
		for i := range states {
			st := &states[i]
			totalIns += st.refsPerIn / st.cpi * st.mr2
		}
		for i := range states {
			st := &states[i]
			if totalIns > 0 {
				st.occ = llcSize * (st.refsPerIn / st.cpi * st.mr2) / totalIns
			} else {
				st.occ = llcSize / float64(len(states))
			}
			if st.occ < ref.LineSize {
				st.occ = ref.LineSize
			}
			st.mrLLC = st.mr2
			if st.model != nil {
				st.mrLLC = math.Min(st.mr2, st.model.MissRatio(int64(st.occ)))
			}
		}
		var busy, batchNum float64
		for i := range states {
			st := &states[i]
			st.bwCore = st.refsPerIn / st.cpi * st.mrLLC * ref.LineSize * (1 + st.wbFrac)
			busy += st.bwCore
			batchNum += st.bwCore * refBatchWAt(st.resp, st.occ/ref.LineSize)
		}
		util = busy / mach.DRAM.BytesPerCycle
		if util > maxBusUtil {
			util = maxBusUtil
		}
		batch := 1.0
		if busy > 0 {
			batch = batchNum / busy
		}
		sync := util * batch
		if sync > batchSyncCap {
			sync = batchSyncCap
		}
		qBase := occCycles * util / (2 * (1 - util)) / (1 - sync)
		qSync := occCycles * (batch - 1) / (1 - sync)
		var wNorm float64
		if busy > 0 {
			for i := range states {
				st := &states[i]
				w := 1 - 1/refBatchWAt(st.resp, st.occ/ref.LineSize)
				wNorm += st.bwCore / busy * w
			}
		}
		baseLat := float64(mach.LLCLat+mach.DRAM.ServiceLat) + occCycles
		l1 := float64(mach.L1Lat)
		dL1 := float64(mach.L1.Size / ref.LineSize)
		dL2 := float64(mach.L2.Size / ref.LineSize)
		lat2 := float64(mach.L2Lat) - l1
		lat3 := float64(mach.LLCLat) - l1
		for i := range states {
			st := &states[i]
			dOcc := st.occ / ref.LineSize
			queue := qBase
			if wNorm > 0 {
				queue += qSync * (1 - 1/refBatchWAt(st.resp, dOcc)) / wNorm
			}
			memLat := baseLat + queue
			term2 := refExtraAt(st.resp, dL1, lat2) - refExtraAt(st.resp, dL2, lat2)
			term3 := refExtraAt(st.resp, dL2, lat3) - refExtraAt(st.resp, dOcc, lat3)
			termM := refExtraAt(st.resp, dOcc, memLat-l1)
			if term2 < 0 {
				term2 = 0
			}
			if term3 < 0 {
				term3 = 0
			}
			st.cpi = 0.5*st.cpi + 0.5*(st.hitCPI+term2+term3+termM)
		}
	}
	return util
}

// randomResponse draws a latency response on mach's depth grid with
// random, sometimes non-monotone curves and batch sizes on both sides of
// 1. Unless full is set it sometimes cuts the grid short (to one point or
// three) or leaves out the batch data.
func randomResponse(rng *rand.Rand, mach machine.Machine, full bool) LatencyResponse {
	depths := machineDepths(mach)
	switch k := rng.Intn(6); {
	case full:
	case k == 0:
		depths = depths[:1]
	case k == 1:
		depths = depths[:3]
	}
	r := LatencyResponse{
		Window:      mach.Window,
		BaseCPI:     0.5 + 2*rng.Float64(),
		UniformLats: uniformLats,
		Uniform:     []float64{rng.Float64(), 2 * rng.Float64()},
		Depths:      depths,
		DepthLats:   make([][]int64, len(depths)),
		Extra:       make([][]float64, len(depths)),
		Entries:     make([]float64, len(depths)),
		BatchW:      make([]float64, len(depths)),
	}
	for d := range depths {
		lats := shallowLats
		if deepDepth(d) {
			lats = deepLats
		}
		r.DepthLats[d] = lats
		r.Extra[d] = make([]float64, len(lats))
		scale := math.Pow(10, -3+3*rng.Float64())
		for i := range lats {
			r.Extra[d][i] = scale * float64(lats[i]) * rng.Float64()
		}
		r.Entries[d] = rng.Float64() / 10
		r.BatchW[d] = 0.5 + 8*rng.Float64()
	}
	if !full && rng.Intn(5) == 0 {
		r.BatchW = r.BatchW[:len(r.BatchW)-1] // no usable batch data
	}
	return r
}

// randomModel fits a StatStack model to seeded samples: a near and a far
// reuse population scaled around mach's cache sizes, plus a cold tail.
func randomModel(rng *rand.Rand, mach machine.Machine) *statstack.Model {
	s := &sampler.Samples{}
	far := mach.LLC.Size / ref.LineSize * int64(1+rng.Intn(4))
	for i, n := 0, 50+rng.Intn(400); i < n; i++ {
		d := rng.Int63n(mach.L1.Size / ref.LineSize)
		if rng.Intn(3) == 0 {
			d = rng.Int63n(far)
		}
		s.Reuse = append(s.Reuse, sampler.ReuseSample{PC: 1, ReusePC: 1, Dist: d})
	}
	for i, n := 0, rng.Intn(30); i < n; i++ {
		s.Cold = append(s.Cold, sampler.ColdSample{PC: 1})
	}
	return statstack.Build(s)
}

// randomCore draws a synthetic core: usually a model and one response per
// machine, sometimes no model (model-less) or no response at all (bare).
func randomCore(rng *rand.Rand, i int) Core {
	c := Core{
		Name:        fmt.Sprintf("core%d", i),
		StridedFrac: rng.Float64(),
	}
	instr := int64(1e5 + rng.Intn(1e7))
	c.Counts = Counts{Instructions: instr, Loads: rng.Int63n(instr / 2), Stores: rng.Int63n(instr / 4)}
	if rng.Intn(8) == 0 {
		c.Counts = Counts{} // no instructions, no references
	}
	kind := rng.Intn(8)
	if kind != 0 {
		c.Model = randomModel(rng, machine.AMDPhenomII())
	}
	if kind != 1 {
		for _, mach := range machine.Both() {
			c.Resps = append(c.Resps, randomResponse(rng, mach, false))
		}
		if rng.Intn(4) == 0 {
			c.Resps = c.Resps[:1] // the other machine falls back to the nearest window
		}
	}
	return c
}

// samePrediction compares two predictions field by field, floats by bits.
func samePrediction(t *testing.T, label string, got, want Prediction) {
	t.Helper()
	bits := math.Float64bits
	if got.Machine != want.Machine || len(got.Cores) != len(want.Cores) ||
		bits(got.TotalBandwidthGBps) != bits(want.TotalBandwidthGBps) ||
		bits(got.BusUtilization) != bits(want.BusUtilization) {
		t.Fatalf("%s: prediction %+v, reference %+v", label, got, want)
	}
	for i, g := range got.Cores {
		w := want.Cores[i]
		if g.Name != w.Name || g.Cycles != w.Cycles || g.OccupancyBytes != w.OccupancyBytes ||
			bits(g.CPI) != bits(w.CPI) || bits(g.MR1) != bits(w.MR1) || bits(g.MR2) != bits(w.MR2) ||
			bits(g.MRLLC) != bits(w.MRLLC) || bits(g.BandwidthGBps) != bits(w.BandwidthGBps) ||
			bits(g.PrefetchGBps) != bits(w.PrefetchGBps) || bits(g.Slowdown) != bits(w.Slowdown) {
			t.Fatalf("%s: core %d\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

func TestPredictMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pool := make([]Core, 24)
	for i := range pool {
		pool[i] = randomCore(rng, i)
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + trial%4
		cores := make([]Core, n)
		for i := range cores {
			cores[i] = pool[rng.Intn(len(pool))]
		}
		for _, mach := range machine.Both() {
			label := fmt.Sprintf("trial %d, %d cores, %s", trial, n, mach.Name)
			samePrediction(t, label, Predict(mach, cores), refPredict(mach, cores))
		}
	}
}

func TestLocateDepthMatchesInterp(t *testing.T) {
	// A position located once and read through any curve must give what
	// interpolating that curve from scratch gives, including at the grid
	// points, the clamped ends and a NaN depth.
	depths := []int64{512, 6144, 8192, 24576, 49152}
	logs := make([]float64, len(depths))
	for d, depth := range depths {
		logs[d] = math.Log(float64(depth))
	}
	vals := []float64{3, 0.25, 7, 1e-9, 2}
	at := func(d int) float64 { return vals[d] }
	probes := []float64{math.NaN(), -1, 0, 1, 511.5, 8191.9, 1e9}
	for _, d := range depths {
		probes = append(probes, float64(d)-0.5, float64(d), float64(d)+0.5)
	}
	for _, depth := range probes {
		want := refInterpDepth(depths, depth, at)
		p := locateDepth(depths, logs, depth)
		if got := p.blend(at(p.lo), at(p.hi)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("depth %g: located %v, reference %v", depth, got, want)
		}
		if got := interpDepth(depths, depth, at); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("depth %g: interpDepth %v, reference %v", depth, got, want)
		}
	}
}

// BenchmarkPredict measures one warm Predict on fixed synthetic cores
// (seeded models and responses, no VM pass): solo is one core alone on the
// AMD machine, mix four cores sharing it (which also runs each core's solo
// fixed point for its slowdown).
func BenchmarkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	mach := machine.AMDPhenomII()
	cores := make([]Core, 4)
	for i := range cores {
		cores[i] = Core{
			Name:        fmt.Sprintf("core%d", i),
			Model:       randomModel(rng, mach),
			Counts:      Counts{Instructions: 1e7, Loads: 3e6, Stores: 1e6},
			Resps:       []LatencyResponse{randomResponse(rng, mach, true)},
			StridedFrac: 0.5,
		}
	}
	for _, bc := range []struct {
		name  string
		cores []Core
	}{{"solo", cores[:1]}, {"mix", cores}} {
		b.Run(bc.name, func(b *testing.B) {
			var cpi float64
			for i := 0; i < b.N; i++ {
				cpi = Predict(mach, bc.cores).Cores[0].CPI
			}
			b.ReportMetric(cpi, "pred-cpi")
		})
	}
}
