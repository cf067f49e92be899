// Package analytic is the MRC-only fast prediction tier: it composes the
// per-application StatStack models (internal/statstack) of a co-running mix
// into a shared-LLC occupancy/miss-ratio fixed point and predicts per-core
// slowdown, DRAM bandwidth demand and prefetchable traffic without running
// the timing simulator (internal/memsys, internal/pipeline).
//
// The composition follows the shared-cache reuse-distance models of Barai
// et al. (arXiv:1907.12666) and PPT-Multicore (arXiv:2104.05102): in steady
// state each core's share of a shared LRU-like cache is proportional to the
// rate at which it inserts lines, which for an inclusive-enough hierarchy is
// its L2 miss rate. That share decides the core's effective LLC size, the
// effective size decides its LLC miss ratio (read off its solo MRC), the
// miss ratio decides its DRAM traffic and queueing delay, and the delay
// decides its CPI — which feeds back into the insertion rate. The fixed
// point is iterated a constant number of times with damping, so predictions
// are deterministic pure float arithmetic: the same inputs produce the same
// bytes on any worker count.
//
// Latency sensitivity is not modeled with closed-form MLP constants —
// whether a load's latency is hidden depends on the program's dependence
// structure (pointer chases serialize, strided streams overlap up to the
// reorder window). Instead, profiling measures each program's latency
// response directly with a handful of VM passes against synthetic memory
// systems, sampling "extra cycles" as a function of latency:
//
//   - a uniform response (every load costs λ) covers the per-load cache hit
//     latency, and
//   - a depth response covers misses: in the simulator every non-L1-hit
//     event fetches a 64 B line into L1, so miss costs — including the
//     late-hit waits of trailing accesses to an in-flight line — attach per
//     line fetch, not per reference, and which fetches a cache of a given
//     size turns into misses is decided by stack distance. Each pass runs
//     the program against an LRU recency filter of one depth D: touching a
//     line whose stack distance exceeds D costs λ, everything else is free
//     (or waits out an in-flight line) and refreshes the line's recency.
//     The charged events are then exactly the far-reuse population a D-line
//     LRU cache would miss — the same population StatStack's MRC counts —
//     with its natural composition and spacing: a serialized pointer chase
//     with short reuse never gets charged in a deep pass, just as it never
//     misses a large cache.
//
// The fixed point prices each hierarchy level by telescoping depth passes:
// extra(L1 depth, λ) − extra(L2 depth, λ) is the cost of the population
// that misses L1 but hits L2, and the DRAM-level term interpolates the
// depth axis at the core's current LLC share, which is how shrinking
// occupancy under a co-running mix turns into serialized far-reuse misses.
// The passes use the VM's real register-dependence and reorder-window logic
// (at each machine's window size) but no cache model; they are cached with
// the profile.
//
// Everything at prediction time costs microseconds per mix against seconds
// for the timing simulator; the differential validation harness
// (internal/analytic/validate and the analytic-validate experiment driver)
// quantifies what that buys and what it costs in accuracy.
package analytic

import (
	"math"
	"sort"

	"prefetchlab/internal/isa"
	"prefetchlab/internal/machine"
	"prefetchlab/internal/ref"
	"prefetchlab/internal/sampler"
	"prefetchlab/internal/statstack"
)

// Model constants. These are calibrated against the timing simulator by the
// analytic-validate driver; the differential golden tests pin the resulting
// error bounds, so retuning a constant that degrades agreement fails CI.
const (
	// Iterations is the fixed-point iteration count. A constant count (not
	// a convergence test) keeps the arithmetic — and therefore the output
	// bytes — independent of float rounding details.
	Iterations = 48
	// maxBusUtil caps modeled DRAM utilization so the M/D/1-style queueing
	// term stays finite under overload.
	maxBusUtil = 0.97
	// batchSyncCap caps the batch-synchronization intensity util·B in the
	// DRAM queueing amplifier 1/(1 − util·B). The shared FIFO channel
	// synchronizes the cores' stall rounds, so per-core miss batches pile
	// into common busy periods; util·B is the fraction of time the channel
	// spends in such pile-ups, and as it approaches 1 the busy periods
	// chain into each other. The cap keeps the amplifier finite,
	// matching the deepest sustained backlogs the simulator exhibits.
	batchSyncCap = 0.9
	// batchGap is the maximum spacing in pass cycles between line entries of
	// one batch. It is the DRAM channel's service-time scale: entries booked
	// closer together than a line transfer's channel occupancy (~14 cycles)
	// pile onto the channel simultaneously, entries further apart let it
	// drain. Regularly spaced solo streams (one miss per loop iteration,
	// tens of cycles apart) stay at B≈1 while dependence-free miss clusters
	// inside one reorder window (parallel gathers, window refills after a
	// chase stall) are counted at their true width.
	batchGap = 16
	// dominantStrideFrac is the per-PC sample fraction a single stride must
	// reach for the PC to count as regular (matching the analyses' notion
	// of a stable stride).
	dominantStrideFrac = 0.6
)

// uniformLats is the latency grid of the uniform (per-load) response: it
// only has to cover the L1 hit latencies (sim stall L1Lat−1, 2–3 cycles).
var uniformLats = []int64{2, 4}

// shallowLats and deepLats are the latency grids of the depth passes.
// Shallow depths (L1, L2) only price the L2/LLC hit excesses (8–37
// cycles); deep (LLC-scale) depths also price DRAM latency plus queueing
// delay up to the modeled utilization cap (~260–490 cycles). Log-spaced:
// the response is near-linear between neighboring powers, and beyond the
// last point it is extrapolated with the final segment's slope (past the
// reorder window every program's response is linear in the latency).
var (
	shallowLats = []int64{8, 32}
	deepLats    = []int64{32, 256, 1024}
)

// Counts summarizes one functional (timing-free) execution of a program:
// the instruction-mix inputs of the analytic CPI model.
type Counts struct {
	Instructions int64
	Loads        int64
	Stores       int64
	Prefetches   int64
}

// Refs returns the demand reference count.
func (c Counts) Refs() int64 { return c.Loads + c.Stores }

// CountRefs executes the program functionally (no timing) and tallies its
// instruction mix. It costs one trace pass — the same work as the sampling
// pass — and is cached per profile by callers.
func CountRefs(c *isa.Compiled) Counts {
	vm := isa.NewVM(c)
	var out Counts
	for {
		ev := vm.NextEvent()
		if ev.Done {
			out.Instructions = vm.Instructions()
			return out
		}
		switch ev.Ref.Kind {
		case ref.Load:
			out.Loads++
		case ref.Store:
			out.Stores++
		default:
			out.Prefetches++
		}
		vm.Complete(0)
	}
}

// LatencyResponse is a program's measured stall response to memory latency,
// sampled on two axes. The uniform curve answers "how many extra cycles per
// load when every load costs λ" — the cost model of cache hits, which charge
// per reference. The line curve answers "how many extra cycles per line
// fetch when the first touch of each line costs λ and trailing touches wait
// out the line's arrival" — the cost model of misses, which charge per line
// brought into L1 (including the late-hit waits of the line's remaining
// accesses). Both curves encode the dependence structure the VM's timing
// model exposes: pointer chases approach slope 1 (every latency cycle is a
// stalled cycle), streams with unread values stay near 0 until the reorder
// window saturates.
type LatencyResponse struct {
	// Window is the reorder-window size (instructions) the passes ran at,
	// matching one evaluation machine.
	Window int64
	// BaseCPI is cycles per instruction with zero-latency loads: the
	// program's compute-bound floor.
	BaseCPI float64
	// UniformLats is the sampled uniform-latency grid, ascending;
	// Uniform[i] is the mean extra cycles per load at latency UniformLats[i]
	// relative to the zero-latency run.
	UniformLats []int64
	Uniform     []float64
	// Depths is the sampled LRU-filter depth grid in cache lines,
	// ascending (the machine's L1 and L2 line counts plus LLC-scale
	// points). DepthLats[d] is depth d's latency grid, and Extra[d][l] the
	// extra cycles per instruction when line entries past depth Depths[d]
	// cost DepthLats[d][l]. Entries[d] is the entry rate (events per
	// instruction) at that depth, kept for diagnostics. BatchW[d] is the
	// transfer-weighted mean batch size at that depth: how many line
	// entries the program books back-to-back before a charged stall
	// separates them. It measures the dependence-limited burstiness of the
	// miss stream a cache of that size would see (a regular solo stream is
	// ≈1, a reorder window full of independent misses is the window's MLP)
	// and drives the DRAM queueing model.
	Depths    []int64
	DepthLats [][]int64
	Extra     [][]float64
	Entries   []float64
	BatchW    []float64
}

// constLat is the synthetic memory system of the uniform response passes:
// every load costs the same latency, stores and prefetches are free
// (matching the VM contract — prefetches must not stall).
type constLat int64

// Access implements isa.MemSystem.
func (l constLat) Access(now int64, r ref.Ref) int64 {
	if r.Kind == ref.Load {
		return int64(l)
	}
	return 0
}

// depthMem is the synthetic memory system of the depth passes: a
// fully-associative LRU filter of depth cache lines. A load or store whose
// 64 B line is not among the depth most recently used lines (stack distance
// > depth — the population StatStack's MRC counts at that size) is a line
// entry and starts a fetch completing at now+lat; an entering load stalls
// the full latency. Any touch refreshes the line's recency, so
// frequently-reused lines stay resident the way they stay in an LRU cache.
// Later loads to a resident line wait out whatever is left in flight (the
// simulator's late hits); stores never stall (write buffer). Re-sweeping a
// working set larger than the filter re-enters its lines the way capacity
// misses re-fetch them, while short-reuse accesses are never charged, just
// as they never miss a cache of that size.
//
// The filter is two flat arrays: the resident lines as a move-to-front list
// of nodes, and an open-addressed slot table mapping a line to its node
// (linear probing on a multiplicative hash, at most half full, backward-shift
// deletion on eviction so no tombstones accumulate). Every access is one
// probe run and a few index swaps, with no allocation, and memory stays
// bounded by the depth however large the program's footprint.
type depthMem struct {
	lat   int64
	cap   int32
	nodes []lruNode
	// slots is the line → node table; a slot holds node index + 1, 0 when
	// empty. Only its first mask+1 entries are in use at the current depth.
	slots   []int32
	mask    uint64
	shift   uint8 // 64 − log2(mask+1): the hash keeps the product's top bits
	mru     int32
	lru     int32
	entries int64
	// Batch bookkeeping: entries booked within gap cycles of the previous
	// entry belong to one batch — the program's dependence-limited burst of
	// simultaneously outstanding misses (a charged stall separates batches
	// by at least lat ≫ gap). The first and second moments of the batch
	// sizes feed the DRAM queueing model.
	gap       int64
	lastEntry int64
	curBatch  int64
	batchSum  int64
	batchSum2 int64
}

// lruNode is one resident line in the move-to-front list. readyAt is when
// the line's fetch completes; it is rewritten at every entry and read only
// while the line is resident.
type lruNode struct {
	line       uint64
	readyAt    int64
	prev, next int32 // toward MRU / toward LRU; -1 at the ends
}

func newDepthMem(lat, depth int64) *depthMem {
	m := &depthMem{}
	m.reset(lat, depth)
	return m
}

// reset empties the filter and rearms it at a new latency and depth,
// reusing its arrays when they are large enough: a response measurement
// builds one filter at its deepest depth and resets it for every grid cell.
func (m *depthMem) reset(lat, depth int64) {
	if depth < 1 {
		depth = 1
	}
	bits := uint8(1)
	for int64(1)<<bits < 2*depth {
		bits++
	}
	size := 1 << bits
	if cap(m.nodes) < int(depth) {
		m.nodes = make([]lruNode, 0, depth)
	}
	if len(m.slots) < size {
		m.slots = make([]int32, size)
	}
	clear(m.slots[:size])
	*m = depthMem{
		lat:       lat,
		cap:       int32(depth),
		nodes:     m.nodes[:0],
		slots:     m.slots,
		mask:      uint64(size - 1),
		shift:     64 - bits,
		mru:       -1,
		lru:       -1,
		gap:       batchGap,
		lastEntry: -1,
	}
}

// home is a line's first probe slot (Fibonacci hashing: consecutive lines
// scatter across the table).
func (m *depthMem) home(line uint64) uint64 {
	return (line * 0x9E3779B97F4A7C15) >> m.shift
}

// unslot removes node i from the slot table. Backward-shift deletion: each
// later entry of the probe run moves into the hole unless its home lies
// cyclically between the hole and its slot, so every remaining line stays
// reachable from its home without tombstones.
func (m *depthMem) unslot(i int32) {
	s := m.home(m.nodes[i].line)
	for m.slots[s] != i+1 {
		s = (s + 1) & m.mask
	}
	for j := (s + 1) & m.mask; m.slots[j] != 0; j = (j + 1) & m.mask {
		k := m.slots[j]
		if (j-m.home(m.nodes[k-1].line))&m.mask >= (j-s)&m.mask {
			m.slots[s] = k
			s = j
		}
	}
	m.slots[s] = 0
}

// batchW returns the transfer-weighted mean batch size E[B²]/E[B]: the
// expected size of the batch a randomly chosen line entry belongs to
// (≥ 1; 1 when entries are isolated or absent).
func (m *depthMem) batchW() float64 {
	sum, sum2 := m.batchSum, m.batchSum2
	if m.curBatch > 0 { // flush the trailing open batch
		sum += m.curBatch
		sum2 += m.curBatch * m.curBatch
	}
	if sum < 1 {
		return 1
	}
	return float64(sum2) / float64(sum)
}

// unlink removes node i from the recency list.
func (m *depthMem) unlink(i int32) {
	n := &m.nodes[i]
	if n.prev >= 0 {
		m.nodes[n.prev].next = n.next
	} else {
		m.mru = n.next
	}
	if n.next >= 0 {
		m.nodes[n.next].prev = n.prev
	} else {
		m.lru = n.prev
	}
}

// pushFront makes node i the most recently used.
func (m *depthMem) pushFront(i int32) {
	n := &m.nodes[i]
	n.prev, n.next = -1, m.mru
	if m.mru >= 0 {
		m.nodes[m.mru].prev = i
	}
	m.mru = i
	if m.lru < 0 {
		m.lru = i
	}
}

// Access implements isa.MemSystem.
func (m *depthMem) Access(now int64, r ref.Ref) int64 {
	switch r.Kind {
	case ref.Load, ref.Store:
	default:
		return 0
	}
	line := r.Line()
	s := m.home(line)
	for k := m.slots[s]; k != 0; k = m.slots[s] {
		i := k - 1
		if m.nodes[i].line == line {
			if i != m.mru {
				m.unlink(i)
				m.pushFront(i)
			}
			if r.Kind == ref.Load {
				if wait := m.nodes[i].readyAt - now; wait > 0 {
					return wait
				}
			}
			return 0
		}
		s = (s + 1) & m.mask
	}
	m.entries++
	if m.lastEntry >= 0 && now-m.lastEntry <= m.gap {
		m.curBatch++
	} else {
		if m.curBatch > 0 {
			m.batchSum += m.curBatch
			m.batchSum2 += m.curBatch * m.curBatch
		}
		m.curBatch = 1
	}
	m.lastEntry = now
	var i int32
	if int32(len(m.nodes)) < m.cap {
		i = int32(len(m.nodes))
		m.nodes = append(m.nodes, lruNode{})
	} else {
		i = m.lru
		m.unlink(i)
		m.unslot(i)
		// The deletion may have opened a hole on line's probe run: probe
		// again for its first free slot.
		for s = m.home(line); m.slots[s] != 0; s = (s + 1) & m.mask {
		}
	}
	m.nodes[i].line = line
	m.nodes[i].readyAt = now + m.lat
	m.slots[s] = i + 1
	m.pushFront(i)
	if r.Kind == ref.Load {
		return m.lat
	}
	return 0
}

// runWindow executes the program against mem with the given reorder-window
// size (isa.Run at a configurable window).
func runWindow(c *isa.Compiled, mem isa.MemSystem, window int64) (int64, *isa.VM) {
	vm := isa.NewVM(c)
	vm.SetWindow(window)
	for {
		ev := vm.NextEvent()
		if ev.Done {
			return vm.Cycles(), vm
		}
		vm.Complete(mem.Access(vm.Cycles(), ev.Ref))
	}
}

// MeasureResponse runs the latency-response passes at one machine's window
// and depth grid: a zero-latency run for the compute floor, one uniform
// run per uniformLats point, and one depth run per (depth, latency) grid
// cell. loads is the program's load count (from CountRefs); it normalizes
// the uniform curve. depths must be ascending; shallow depths (below the
// last two, the LLC-scale points) use the shallow latency grid.
func MeasureResponse(c *isa.Compiled, loads, window int64, depths []int64) LatencyResponse {
	base, vm := runWindow(c, constLat(0), window)
	instr := vm.Instructions()
	if instr < 1 {
		instr = 1
	}
	resp := LatencyResponse{
		Window:      window,
		BaseCPI:     float64(base) / float64(instr),
		UniformLats: uniformLats,
		Uniform:     make([]float64, len(uniformLats)),
		Depths:      depths,
		DepthLats:   make([][]int64, len(depths)),
		Extra:       make([][]float64, len(depths)),
		Entries:     make([]float64, len(depths)),
		BatchW:      make([]float64, len(depths)),
	}
	if loads < 1 {
		for d := range depths {
			resp.DepthLats[d] = shallowLats
			resp.Extra[d] = make([]float64, len(shallowLats))
			resp.BatchW[d] = 1
		}
		return resp
	}
	for i, lat := range uniformLats {
		cycles, _ := runWindow(c, constLat(lat), window)
		resp.Uniform[i] = perEvent(cycles, base, loads)
	}
	// One filter, sized for the deepest depth, serves every grid cell.
	deepest := int64(1)
	for _, depth := range depths {
		deepest = max(deepest, depth)
	}
	mem := newDepthMem(0, deepest)
	for d, depth := range depths {
		lats := shallowLats
		if deepDepth(depths, d) {
			lats = deepLats
		}
		resp.DepthLats[d] = lats
		resp.Extra[d] = make([]float64, len(lats))
		for i, lat := range lats {
			mem.reset(lat, depth)
			cycles, _ := runWindow(c, mem, window)
			resp.Entries[d] = float64(mem.entries) / float64(instr)
			resp.BatchW[d] = mem.batchW()
			resp.Extra[d][i] = perEvent(cycles, base, instr)
		}
	}
	return resp
}

// deepDepth reports whether depth index d is an LLC-scale point (priced on
// the deep latency grid): any depth past the two private-cache points.
func deepDepth(depths []int64, d int) bool { return d >= 2 }

// perEvent converts a pass's extra cycles over the zero-latency baseline
// into mean extra cycles per charged event, clamped at zero.
func perEvent(cycles, base, events int64) float64 {
	if events < 1 {
		return 0
	}
	extra := cycles - base
	if extra < 0 {
		extra = 0
	}
	return float64(extra) / float64(events)
}

// UniformAt interpolates the uniform (per-load) response at an arbitrary
// latency.
func (r LatencyResponse) UniformAt(lat float64) float64 {
	return interpResponse(r.UniformLats, r.Uniform, lat)
}

// ExtraAt interpolates the depth response — extra cycles per instruction
// when line entries past depth (in cache lines) cost lat — piecewise
// linearly in latency within each measured depth and linearly in log depth
// between depths, clamped at the depth-grid ends.
func (r LatencyResponse) ExtraAt(depth, lat float64) float64 {
	if len(r.Depths) == 0 {
		return 0
	}
	return interpDepth(r.Depths, depth, func(d int) float64 {
		return interpResponse(r.DepthLats[d], r.Extra[d], lat)
	})
}

// BatchWAt interpolates the transfer-weighted mean batch size at an
// arbitrary depth (linearly in log depth, clamped at the grid ends).
// Returns 1 — isolated arrivals — when the response carries no batch data.
func (r LatencyResponse) BatchWAt(depth float64) float64 {
	if len(r.BatchW) != len(r.Depths) || len(r.Depths) == 0 {
		return 1
	}
	w := interpDepth(r.Depths, depth, func(d int) float64 { return r.BatchW[d] })
	if w < 1 {
		return 1
	}
	return w
}

// interpDepth interpolates at(d) linearly in log depth over an ascending
// depth grid, clamping at the ends.
func interpDepth(depths []int64, depth float64, at func(d int) float64) float64 {
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

// interpResponse interpolates a response curve: linear through the origin
// below the first grid point, piecewise-linear between points, and linear
// extrapolation with the last segment's slope above the grid (past the
// reorder window every program's response is linear in the latency).
func interpResponse(lats []int64, vals []float64, lat float64) float64 {
	if len(lats) == 0 || lat <= 0 {
		return 0
	}
	if lat <= float64(lats[0]) {
		return vals[0] * lat / float64(lats[0])
	}
	n := len(lats)
	if lat >= float64(lats[n-1]) {
		if n == 1 {
			return vals[0] * lat / float64(lats[0])
		}
		slope := (vals[n-1] - vals[n-2]) / float64(lats[n-1]-lats[n-2])
		s := vals[n-1] + slope*(lat-float64(lats[n-1]))
		if s < 0 {
			return 0
		}
		return s
	}
	i := sort.Search(n, func(i int) bool { return float64(lats[i]) >= lat })
	lo, hi := float64(lats[i-1]), float64(lats[i])
	t := (lat - lo) / (hi - lo)
	return vals[i-1] + t*(vals[i]-vals[i-1])
}

// Core is one application's analytic inputs: its fitted StatStack model,
// its instruction mix, its latency responses (one per evaluation-machine
// core geometry), and the fraction of its sampled memory work with a
// stable stride (the prefetchable part).
type Core struct {
	Name        string
	Model       *statstack.Model
	Counts      Counts
	Resps       []LatencyResponse
	StridedFrac float64
}

// NewCore assembles a Core from a profile's parts, running the counting and
// latency-response passes on the compiled program — one response per
// distinct (reorder window, L1 lines) geometry among the evaluation
// machines. StridedFrac is the sample-weighted fraction of instructions
// whose dominant stride is regular and nonzero — the traffic a stride
// prefetcher could cover.
func NewCore(name string, m *statstack.Model, s *sampler.Samples, c *isa.Compiled) Core {
	counts := CountRefs(c)
	core := Core{
		Name:        name,
		Model:       m,
		Counts:      counts,
		StridedFrac: stridedFraction(s),
	}
	for _, mach := range machine.Both() {
		seen := false
		for _, r := range core.Resps {
			if r.Window == mach.Window {
				seen = true
				break
			}
		}
		if !seen {
			core.Resps = append(core.Resps, MeasureResponse(c, counts.Loads, mach.Window, machineDepths(mach)))
		}
	}
	return core
}

// machineDepths is a machine's depth grid in cache lines: the private L1
// and L2 sizes plus three LLC-scale points, so the fixed point can
// interpolate the DRAM-level cost at any LLC share down to 1/8 of the
// cache.
func machineDepths(mach machine.Machine) []int64 {
	llc := mach.LLC.Size / ref.LineSize
	return []int64{
		mach.L1.Size / ref.LineSize,
		mach.L2.Size / ref.LineSize,
		llc / 8,
		llc / 2,
		llc,
	}
}

// respFor picks the latency response matching a machine's reorder window,
// falling back to the nearest window if the exact one was not measured.
func (c Core) respFor(mach machine.Machine) LatencyResponse {
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

// stridedFraction computes the sample-weighted regular-stride fraction.
// Per-PC groups are visited in sorted PC order so the float accumulation is
// identical on every run.
func stridedFraction(s *sampler.Samples) float64 {
	if s == nil || len(s.Strides) == 0 {
		return 0
	}
	byPC := s.StridesByPC()
	pcs := make([]ref.PC, 0, len(byPC))
	for pc := range byPC {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	var total, strided float64
	for _, pc := range pcs {
		samples := byPC[pc]
		counts := make(map[int64]int, len(samples))
		for _, st := range samples {
			counts[st.Stride]++
		}
		best, bestN := int64(0), 0
		for _, st := range samples { // visit in sample order, not map order
			if n := counts[st.Stride]; n > bestN || (n == bestN && st.Stride < best) {
				best, bestN = st.Stride, n
			}
		}
		total += float64(len(samples))
		if best != 0 && float64(bestN) >= dominantStrideFrac*float64(len(samples)) {
			strided += float64(len(samples))
		}
	}
	if total == 0 {
		return 0
	}
	return strided / total
}

// CorePrediction is one core's analytic steady state.
type CorePrediction struct {
	Name string
	// CPI is the predicted cycles per instruction under the mix.
	CPI float64
	// Cycles is CPI × instructions — the predicted run length.
	Cycles int64
	// MR1, MR2, MRLLC are the modeled miss ratios (per demand reference) at
	// the private L1, the private L2, and the core's LLC share.
	MR1, MR2, MRLLC float64
	// OccupancyBytes is the core's fixed-point share of the shared LLC.
	OccupancyBytes int64
	// BandwidthGBps is the core's DRAM demand (fetches + writebacks).
	BandwidthGBps float64
	// PrefetchGBps is the strided share of the demand fetch traffic — the
	// bandwidth a stride prefetcher would need to cover this core's misses.
	PrefetchGBps float64
	// Slowdown is CPI divided by the core's solo CPI on the same machine
	// (1.0 in a solo prediction).
	Slowdown float64
}

// Prediction is the analytic steady state of one machine running a set of
// cores.
type Prediction struct {
	Machine string
	Cores   []CorePrediction
	// TotalBandwidthGBps is the aggregate DRAM demand.
	TotalBandwidthGBps float64
	// BusUtilization is the modeled DRAM channel utilization in [0, maxBusUtil].
	BusUtilization float64
}

// coreState is the mutable per-core fixed-point state.
type coreState struct {
	model     *statstack.Model
	resp      LatencyResponse
	instr     float64
	refsPerIn float64
	wbFrac    float64
	mr1, mr2  float64
	// hitCPI is the CPI with every load hitting L1: the compute floor plus
	// the program's uniform response at the L1 hit stall (L1Lat−1, the
	// latency the simulator charges a hitting load at first use).
	hitCPI float64

	cpi    float64
	occ    float64
	mrLLC  float64
	bwCore float64 // bytes per cycle, fetches + writebacks
}

// Predict composes the cores' MRCs into the shared-LLC fixed point on mach
// and returns the steady-state prediction. A single core receives the whole
// LLC (the solo prediction); Slowdown is filled relative to a per-core solo
// prediction, so solo cores report 1.0.
func Predict(mach machine.Machine, cores []Core) Prediction {
	out := Prediction{Machine: mach.Name}
	if len(cores) == 0 {
		return out
	}
	states := make([]coreState, len(cores))
	for i, c := range cores {
		states[i] = newCoreState(mach, c, int64(len(cores)))
	}
	util := iterate(mach, states)
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
		// Demand fetch bytes/cycle (no writebacks) scaled by the strided
		// fraction: the traffic a stride prefetcher would have to move.
		fetch := st.refsPerIn / st.cpi * st.mrLLC * ref.LineSize
		cp.PrefetchGBps = mach.GBps(fetch * c.StridedFrac)
		out.TotalBandwidthGBps += cp.BandwidthGBps
		out.Cores = append(out.Cores, cp)
	}
	if len(cores) > 1 {
		for i, c := range cores {
			solo := Predict(mach, []Core{c})
			if soloCPI := solo.Cores[0].CPI; soloCPI > 0 {
				out.Cores[i].Slowdown = out.Cores[i].CPI / soloCPI
			}
		}
	}
	return out
}

// newCoreState precomputes one core's invariant inputs and seeds the fixed
// point with an even LLC split and the all-hits CPI floor.
func newCoreState(mach machine.Machine, c Core, n int64) coreState {
	st := coreState{
		model: c.Model,
		resp:  c.respFor(mach),
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
	st.hitCPI = base + loadsPerIn*st.resp.UniformAt(float64(mach.L1Lat-1))
	st.cpi = st.hitCPI
	if c.Model != nil {
		st.mr1 = c.Model.MissRatio(mach.L1.Size)
		st.mr2 = math.Min(st.mr1, c.Model.MissRatio(mach.L2.Size))
		st.mrLLC = math.Min(st.mr2, c.Model.MissRatio(int64(st.occ)))
	}
	return st
}

// iterate runs the occupancy/bandwidth/CPI fixed point for a constant
// iteration count and returns the final bus utilization. Each pass:
// insertion rates → LLC shares → LLC miss ratios → DRAM utilization and
// queueing delay → per-core CPI (damped).
func iterate(mach machine.Machine, states []coreState) float64 {
	llcSize := float64(mach.LLC.Size)
	// Channel occupancy of one line transfer, rounded like dram.Transfer.
	// ServiceLat is pipelined latency layered on top — it delays the
	// requester but does not occupy the channel, so queueing is governed by
	// the transfer time alone.
	occCycles := math.Floor(float64(ref.LineSize)/mach.DRAM.BytesPerCycle + 0.5)
	if occCycles < 1 {
		occCycles = 1
	}
	util := 0.0
	for it := 0; it < Iterations; it++ {
		// LLC shares from L2-miss insertion rates (Barai et al.).
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
			st.mrLLC = st.mr2 // cores without a model keep mr2 (0)
			if st.model != nil {
				st.mrLLC = math.Min(st.mr2, st.model.MissRatio(int64(st.occ)))
			}
		}
		// DRAM utilization from every core's fetch + writeback stream, and
		// the transfer-weighted mean batch size of the superposed miss
		// stream (each core's batch size read off its latency response at
		// its current LLC share — a core squeezed out of the LLC exposes
		// its bursty chase/gather population, a core with a large share
		// only its regular streams).
		var busy, batchNum float64
		for i := range states {
			st := &states[i]
			st.bwCore = st.refsPerIn / st.cpi * st.mrLLC * ref.LineSize * (1 + st.wbFrac)
			busy += st.bwCore
			batchNum += st.bwCore * st.resp.BatchWAt(st.occ/ref.LineSize)
		}
		util = busy / mach.DRAM.BytesPerCycle
		if util > maxBusUtil {
			util = maxBusUtil
		}
		batch := 1.0
		if busy > 0 {
			batch = batchNum / busy
		}
		// Queueing on the single FIFO channel: within-batch pile-up (the
		// transfers ahead of a random batch member) plus the M/D/1
		// cross-arrival term, amplified by batch synchronization — the
		// channel couples the cores' stall rounds, so batches from
		// different cores land in common busy periods that chain as
		// util·batch grows (capped for stability; see batchSyncCap).
		sync := util * batch
		if sync > batchSyncCap {
			sync = batchSyncCap
		}
		qBase := occCycles * util / (2 * (1 - util)) / (1 - sync)
		qSync := occCycles * (batch - 1) / (1 - sync)
		// The pile-up term is not shared evenly: a serialized chase
		// (B_i ≈ 1) only issues its next miss after the previous one
		// drained, so it samples the channel right after its own busy
		// period and rarely lands inside a pile-up; a bursty core's
		// misses arrive during the very backlogs they create. Weight each
		// core's share of the sync term by (1 − 1/B_i), normalized so the
		// transfer-weighted mean queue is unchanged.
		var wNorm float64
		if busy > 0 {
			for i := range states {
				st := &states[i]
				w := 1 - 1/st.resp.BatchWAt(st.occ/ref.LineSize)
				wNorm += st.bwCore / busy * w
			}
		}
		baseLat := float64(mach.LLCLat+mach.DRAM.ServiceLat) + occCycles
		// CPI from the telescoped depth response: the population that
		// misses L1 but hits L2 costs the L2 excess latency, the L2-miss/
		// LLC-hit population the LLC excess, and the population past the
		// core's current LLC share the full DRAM latency. Each term prices
		// its own far-reuse population (depth passes) at its level's
		// latency in excess of the L1 hit cost already inside hitCPI.
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
				queue += qSync * (1 - 1/st.resp.BatchWAt(dOcc)) / wNorm
			}
			memLat := baseLat + queue
			term2 := st.resp.ExtraAt(dL1, lat2) - st.resp.ExtraAt(dL2, lat2)
			term3 := st.resp.ExtraAt(dL2, lat3) - st.resp.ExtraAt(dOcc, lat3)
			termM := st.resp.ExtraAt(dOcc, memLat-l1)
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
