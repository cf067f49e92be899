package cache_test

import (
	"math/rand"
	"testing"

	"prefetchlab/internal/cache"
	"prefetchlab/internal/machine"
)

type geom struct {
	name string
	cfg  cache.Config
}

// benchGeoms are the cache levels of both modelled machines: AMD's 2-way
// L1, 16-way L2 and 48-way LLC, and Intel's 8-way L1 and L2 and 16-way LLC.
func benchGeoms() []geom {
	amd, intel := machine.AMDPhenomII(), machine.IntelSandyBridge()
	return []geom{
		{"amd_l1", amd.L1}, {"amd_l2", amd.L2}, {"amd_llc", amd.LLC},
		{"intel_l1", intel.L1}, {"intel_l2", intel.L2}, {"intel_llc", intel.LLC},
	}
}

// benchStream is a fixed seeded stream of 2^20 line addresses drawn
// uniformly from twice the level's capacity in lines, so a warmed level
// hits on about half of them.
func benchStream(cfg cache.Config) []uint64 {
	rng := rand.New(rand.NewSource(1))
	s := make([]uint64, 1<<20)
	for i := range s {
		s[i] = uint64(rng.Int63n(2 * cfg.Size / 64))
	}
	return s
}

// warmed builds a level and replays the stream once through it, inserting
// every miss, so the timed loop starts from a full cache.
func warmed(b *testing.B, cfg cache.Config, stream []uint64) *cache.Cache {
	b.Helper()
	c, err := cache.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i, line := range stream {
		if _, ok := c.Lookup(line, int64(i)); !ok {
			c.Insert(line, int64(i), cache.FillOpts{Used: true})
		}
	}
	return c
}

// BenchmarkLookup measures one demand Lookup (one set scan) per op on a
// warmed level; misses do not insert, so the contents stay fixed.
func BenchmarkLookup(b *testing.B) {
	for _, g := range benchGeoms() {
		b.Run(g.name, func(b *testing.B) {
			stream := benchStream(g.cfg)
			c := warmed(b, g.cfg, stream)
			before := c.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Lookup(stream[i&(len(stream)-1)], int64(i))
			}
			b.StopTimer()
			st := c.Stats()
			b.ReportMetric(100*float64(st.Hits-before.Hits)/float64(b.N), "hit-%")
		})
	}
}

// BenchmarkInsert measures one Insert per op on a warmed level: a refresh
// when the line is present, otherwise a fill that evicts a victim.
func BenchmarkInsert(b *testing.B) {
	for _, g := range benchGeoms() {
		b.Run(g.name, func(b *testing.B) {
			stream := benchStream(g.cfg)
			c := warmed(b, g.cfg, stream)
			before := c.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Insert(stream[i&(len(stream)-1)], int64(i), cache.FillOpts{Src: cache.FillHW})
			}
			b.StopTimer()
			st := c.Stats()
			b.ReportMetric(100*float64(st.Evictions-before.Evictions)/float64(b.N), "evict-%")
		})
	}
}
