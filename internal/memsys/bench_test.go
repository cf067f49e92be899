package memsys_test

import (
	"math/rand"
	"testing"

	"prefetchlab/internal/machine"
	"prefetchlab/internal/memsys"
	"prefetchlab/internal/ref"
)

// hierarchyStream is a fixed seeded stream of 2^18 references for one
// core: three of every four walk one of four 8-byte-strided arrays of 8 MiB
// each (so the stride and stream prefetchers train), the fourth is a
// random load over 32 MiB; one reference in eight is a store.
func hierarchyStream() []ref.Ref {
	rng := rand.New(rand.NewSource(1))
	const array = 8 << 20
	var pos [4]uint64
	s := make([]ref.Ref, 1<<18)
	for i := range s {
		r := ref.Ref{Kind: ref.Load}
		if k := i % 4; k < 3 || rng.Intn(2) == 0 {
			a := (i / 4) % 4
			r.PC = ref.PC(a)
			r.Addr = uint64(a)*array + pos[a]%array
			pos[a] += 8
		} else {
			r.PC = 4
			r.Addr = 4*array + uint64(rng.Int63n(4*array))
		}
		if rng.Intn(8) == 0 {
			r.Kind = ref.Store
		}
		s[i] = r
	}
	return s
}

// BenchmarkHierarchyAccess measures one demand reference through the AMD
// hierarchy (L1, L2, LLC and DRAM channel) per op on one core, with the
// hardware prefetchers off and on. Time advances by one cycle plus the
// stall of each reference, as an in-order core would see it.
func BenchmarkHierarchyAccess(b *testing.B) {
	stream := hierarchyStream()
	for _, hw := range []struct {
		name string
		on   bool
	}{{"hwoff", false}, {"hwon", true}} {
		b.Run(hw.name, func(b *testing.B) {
			h, err := memsys.New(machine.AMDPhenomII().MemConfig(1, hw.on))
			if err != nil {
				b.Fatal(err)
			}
			h.SetCorePCs(0, 5)
			var now int64
			for _, r := range stream { // warm the caches
				now += 1 + h.Access(0, now, r)
			}
			before := h.CoreStats(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 1 + h.Access(0, now, stream[i&(len(stream)-1)])
			}
			b.StopTimer()
			st := h.CoreStats(0)
			b.ReportMetric(100*float64(st.L1Misses-before.L1Misses)/float64(b.N), "l1-miss-%")
		})
	}
}
