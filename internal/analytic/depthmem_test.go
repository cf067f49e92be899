package analytic

import (
	"math/rand"
	"testing"

	"prefetchlab/internal/machine"
	"prefetchlab/internal/ref"
)

// mapLRU is the reference the flat-table depthMem is checked against: the
// same filter written the obvious way, a recency slice (MRU first) plus a
// map of fetch completion times.
type mapLRU struct {
	lat, cap  int64
	order     []uint64
	ready     map[uint64]int64
	entries   int64
	lastEntry int64
	curBatch  int64
	batchSum  int64
	batchSum2 int64
}

func newMapLRU(lat, depth int64) *mapLRU {
	return &mapLRU{lat: lat, cap: max(depth, 1), ready: map[uint64]int64{}, lastEntry: -1}
}

func (m *mapLRU) Access(now int64, r ref.Ref) int64 {
	if r.Kind != ref.Load && r.Kind != ref.Store {
		return 0
	}
	line := r.Line()
	for i, l := range m.order {
		if l == line {
			copy(m.order[1:i+1], m.order[:i])
			m.order[0] = line
			if wait := m.ready[line] - now; r.Kind == ref.Load && wait > 0 {
				return wait
			}
			return 0
		}
	}
	m.entries++
	if m.lastEntry >= 0 && now-m.lastEntry <= batchGap {
		m.curBatch++
	} else {
		m.batchSum += m.curBatch
		m.batchSum2 += m.curBatch * m.curBatch
		m.curBatch = 1
	}
	m.lastEntry = now
	if int64(len(m.order)) == m.cap {
		m.order = m.order[:len(m.order)-1]
	}
	m.order = append([]uint64{line}, m.order...)
	m.ready[line] = now + m.lat
	if r.Kind == ref.Load {
		return m.lat
	}
	return 0
}

func (m *mapLRU) batchW() float64 {
	sum := m.batchSum + m.curBatch
	sum2 := m.batchSum2 + m.curBatch*m.curBatch
	if sum < 1 {
		return 1
	}
	return float64(sum2) / float64(sum)
}

// collidingLines returns perSlot lines homed at each of the table's last
// slot, its first and its second (fewer distinct slots at depth 1): probe
// runs that start at the end of the table wrap around to its start, and
// evicting any of them shifts the others back across the wrap.
func collidingLines(depth int64, perSlot int) []uint64 {
	m := newDepthMem(1, depth)
	want := map[uint64]int{}
	for _, s := range []uint64{m.mask, 0, 1} {
		want[s] = perSlot
	}
	var out []uint64
	for line := uint64(1); len(out) < len(want)*perSlot; line++ {
		if h := m.home(line); want[h] > 0 {
			want[h]--
			out = append(out, line)
		}
	}
	return out
}

// depthOp is one access of a differential stream.
type depthOp struct {
	line uint64
	kind ref.Kind
	dt   int64 // cycles since the previous access
}

// diffDepthMem replays ops through depthMem and the map reference and
// fails on the first differing stall, or on differing entry counts or
// batch widths at the end.
func diffDepthMem(t *testing.T, lat, depth int64, ops []depthOp) {
	t.Helper()
	got, want := newDepthMem(lat, depth), newMapLRU(lat, depth)
	now := int64(0)
	for i, op := range ops {
		now += op.dt
		r := ref.Ref{Addr: op.line << ref.LineBits, Kind: op.kind}
		if g, w := got.Access(now, r), want.Access(now, r); g != w {
			t.Fatalf("depth %d lat %d: op %d (%+v at t=%d) stalled %d, reference %d", depth, lat, i, op, now, g, w)
		}
	}
	if got.entries != want.entries {
		t.Errorf("depth %d lat %d: entries = %d, reference %d", depth, lat, got.entries, want.entries)
	}
	if g, w := got.batchW(), want.batchW(); g != w {
		t.Errorf("depth %d lat %d: batchW = %v, reference %v", depth, lat, g, w)
	}
}

var depthKinds = []ref.Kind{ref.Load, ref.Load, ref.Store, ref.Prefetch}

func TestDepthMemMatchesMapLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, depth := range []int64{1, 2, 3, 8} {
		pool := collidingLines(depth, 3)
		for i := 0; i < 4; i++ { // a few lines that do not collide
			pool = append(pool, uint64(rng.Int63n(1<<40)))
		}
		for _, lat := range []int64{0, 7, 50} {
			ops := make([]depthOp, 4000)
			for i := range ops {
				ops[i] = depthOp{
					line: pool[rng.Intn(len(pool))],
					kind: depthKinds[rng.Intn(len(depthKinds))],
					dt:   []int64{0, 1, batchGap, batchGap + 1, 40, 500}[rng.Intn(6)],
				}
			}
			diffDepthMem(t, lat, depth, ops)
		}
	}
}

func TestDepthMemResetMatchesFresh(t *testing.T) {
	// A filter reset from a deeper, used one must behave like a new one.
	m := newDepthMem(9, 64)
	for line := uint64(0); line < 200; line++ {
		m.Access(int64(line), ld(line*7))
	}
	m.reset(20, 3)
	fresh := newDepthMem(20, 3)
	for i, line := range collidingLines(3, 2) {
		for _, mem := range []*depthMem{m, fresh} {
			mem.Access(int64(i)*5, ld(line))
		}
	}
	if m.entries != fresh.entries || m.batchW() != fresh.batchW() || m.mask != fresh.mask {
		t.Errorf("reset filter: entries %d batchW %v mask %d, fresh %d %v %d",
			m.entries, m.batchW(), m.mask, fresh.entries, fresh.batchW(), fresh.mask)
	}
}

// FuzzDepthMem drives the differential comparison from fuzz bytes: the
// first byte picks the depth (1–8) and the latency, then each byte is one
// access: its low bits pick a line from a colliding pool, the next bit
// the kind, and the high bits the time gap.
func FuzzDepthMem(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x01, 0x00})
	f.Add([]byte{0x12, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x08, 0x00, 0x90})
	f.Add([]byte{0x27, 0xf0, 0x01, 0xe2, 0x03, 0xd4, 0x05, 0xc6, 0x07, 0xb8, 0x00, 0xaa, 0x01})
	f.Add([]byte{0x77, 0x08, 0x18, 0x28, 0x38, 0x48, 0x58, 0x68, 0x78, 0x00, 0x10, 0x20, 0x30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		depth := int64(data[0]&7) + 1
		lat := int64(data[0]>>3) * 3
		pool := collidingLines(depth, 3)
		pool = append(pool, 1<<33, 1<<33+1, 7) // and a few plain lines
		ops := make([]depthOp, 0, len(data)-1)
		for _, b := range data[1:] {
			kind := ref.Load
			if b&0x10 != 0 {
				kind = ref.Store
			}
			ops = append(ops, depthOp{
				line: pool[int(b&0x0f)%len(pool)],
				kind: kind,
				dt:   int64(b>>5) * 6,
			})
		}
		diffDepthMem(t, lat, depth, ops)
	})
}

// BenchmarkDepthMemAccess measures the depth filter alone at the deepest
// AMD depth (the whole LLC in lines) over a fixed synthetic stream: a
// sweep over 1.5× the depth, so every sweep access enters and evicts a
// line, interleaved with reuse of a hot set that stays resident. ns/op is
// ns per access.
func BenchmarkDepthMemAccess(b *testing.B) {
	depths := machineDepths(machine.AMDPhenomII())
	depth := depths[len(depths)-1]
	stream := make([]ref.Ref, 1<<20)
	rng := rand.New(rand.NewSource(1))
	sweep := uint64(0)
	for i := range stream {
		line := uint64(1<<30) + sweep%uint64(depth*3/2)
		sweep++
		if i%4 == 3 {
			line = uint64(rng.Intn(4096))
		}
		stream[i] = ref.Ref{Addr: line << ref.LineBits, Kind: depthKinds[i%3]}
	}
	m := newDepthMem(200, depth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(int64(i), stream[i&(len(stream)-1)])
	}
	b.ReportMetric(float64(m.entries)/float64(b.N), "entries/access")
}
