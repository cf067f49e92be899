package statstack

import (
	"math"
	"math/rand"
	"testing"

	"prefetchlab/internal/ref"
	"prefetchlab/internal/sampler"
)

// searchCriticalRD is the exponential-plus-binary search over rd that
// criticalRD replaced, kept as its oracle: ~80 StackDist evaluations per
// query, each with its own binary search over the samples.
func searchCriticalRD(m *Model, lines int64) int64 {
	if lines <= 0 {
		return 0
	}
	lo, hi := int64(0), int64(1)
	for m.StackDist(hi) < float64(lines) {
		if hi > 1<<60 {
			return math.MaxInt64
		}
		hi <<= 1
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if m.StackDist(mid) >= float64(lines) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// randomSamples draws n reuse samples and cold samples from rng. Distances
// come from a small pool when dups is set (long runs of duplicates) and
// are otherwise log-uniform up to 2^maxBits.
func randomSamples(rng *rand.Rand, n, cold int, dups bool, maxBits int) *sampler.Samples {
	s := &sampler.Samples{}
	pool := make([]int64, 1+rng.Intn(4))
	for i := range pool {
		pool[i] = rng.Int63n(int64(1) << (1 + rng.Intn(maxBits)))
	}
	for i := 0; i < n; i++ {
		d := pool[rng.Intn(len(pool))]
		if !dups {
			d = rng.Int63n(int64(1) << (1 + rng.Intn(maxBits)))
		}
		pc := ref.PC(rng.Intn(3))
		s.Reuse = append(s.Reuse, sampler.ReuseSample{PC: pc, ReusePC: pc, Dist: d})
	}
	for i := 0; i < cold; i++ {
		s.Cold = append(s.Cold, sampler.ColdSample{PC: 0})
	}
	return s
}

// probeLines is the query set for one model: the edges, every sample
// value and its neighbours (in lines, so the breakpoints of sd itself are
// probed too), random values and the far end of int64.
func probeLines(rng *rand.Rand, m *Model) []int64 {
	lines := []int64{0, 1, 2, -1, 1<<60 + 1, 3 << 59, 1 << 61, 1<<61 + 1, 1 << 62, math.MaxInt64}
	for _, rd := range m.rds {
		lines = append(lines, rd-1, rd, rd+1)
		sd := int64(m.StackDist(rd))
		lines = append(lines, sd-1, sd, sd+1, sd+2)
	}
	for i := 0; i < 20; i++ {
		lines = append(lines, rng.Int63n(int64(1)<<(1+rng.Intn(44))))
	}
	return lines
}

func checkCriticalRD(t *testing.T, m *Model, lines []int64) {
	t.Helper()
	for _, l := range lines {
		if got, want := m.criticalRD(l), searchCriticalRD(m, l); got != want {
			t.Fatalf("criticalRD(%d) = %d, search gives %d (%d samples, %d cold)",
				l, got, want, len(m.rds), m.cold)
		}
	}
}

func TestCriticalRDMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(501)
		if trial%10 == 0 {
			n = rng.Intn(4) // empty and tiny models
		}
		cold := 0
		if trial%3 != 0 {
			cold = rng.Intn(n/4 + 3)
		}
		maxBits := 40
		if trial%2 == 0 {
			maxBits = 1 + rng.Intn(20)
		}
		m := Build(randomSamples(rng, n, cold, trial%4 == 1, maxBits))
		checkCriticalRD(t, m, probeLines(rng, m))
	}
}

func FuzzCriticalRD(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), false, int64(1))
	f.Add(int64(2), uint16(500), uint8(0), true, int64(1<<20))
	f.Add(int64(3), uint16(300), uint8(40), false, int64(1<<62))
	f.Add(int64(4), uint16(64), uint8(7), true, int64(math.MaxInt64))
	f.Add(int64(5), uint16(0), uint8(9), false, int64(12345))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, cold uint8, dups bool, lines int64) {
		rng := rand.New(rand.NewSource(seed))
		m := Build(randomSamples(rng, int(n%600), int(cold), dups, 1+int(uint64(seed)%40)))
		checkCriticalRD(t, m, append(probeLines(rng, m), lines))
	})
}

// BenchmarkMissRatio measures one application miss-ratio query on a model
// fitted to a fixed synthetic sample set (a near-reuse population, a
// log-uniform far population and a cold tail), at the Figure 3 sizes plus
// the non-power-of-two LLC shares the analytic fixed point asks for.
func BenchmarkMissRatio(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := &sampler.Samples{}
	for i := 0; i < 20000; i++ {
		d := rng.Int63n(64)
		if i%2 == 0 {
			d = rng.Int63n(int64(1) << (6 + rng.Intn(20)))
		}
		s.Reuse = append(s.Reuse, sampler.ReuseSample{PC: ref.PC(i % 16), ReusePC: ref.PC(i % 16), Dist: d})
	}
	for i := 0; i < 500; i++ {
		s.Cold = append(s.Cold, sampler.ColdSample{PC: 0})
	}
	m := Build(s)
	sizes := append(StandardSizes(), 1536<<10, 3<<20, 6<<20-4096, 1<<20+3*ref.LineSize, 700<<10)
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += m.MissRatio(sizes[i%len(sizes)])
	}
	b.ReportMetric(sum/float64(b.N), "mean-mr")
}
