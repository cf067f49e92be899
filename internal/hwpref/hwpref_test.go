package hwpref

import (
	"testing"

	"prefetchlab/internal/ref"
)

// mustStride builds a stride prefetcher from a config the test knows is valid.
func mustStride(t *testing.T, cfg StrideConfig) *Stride {
	t.Helper()
	s, err := NewStride(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustStream builds a stream prefetcher from a config the test knows is valid.
func mustStream(t *testing.T, cfg StreamConfig) *Stream {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConstructorsRejectBadConfigs(t *testing.T) {
	if _, err := NewStride(StrideConfig{TableSize: 3}); err == nil {
		t.Error("NewStride accepted a non-power-of-two table")
	}
	if _, err := NewStride(StrideConfig{}); err == nil {
		t.Error("NewStride accepted a zero table")
	}
	if _, err := NewStream(StreamConfig{Streams: 0}); err == nil {
		t.Error("NewStream accepted zero streams")
	}
}

func TestStrideTrainsAndIssues(t *testing.T) {
	s := mustStride(t, StrideConfig{TableSize: 16, Threshold: 2, MaxConf: 4, Degree: 2, Distance: 4})
	pc := ref.PC(3)
	var out []uint64
	// Accesses at a constant 64 B stride: lines 0,1,2,...
	for i := 0; i < 5; i++ {
		out = s.Observe(0, pc, uint64(i), true, nil)
	}
	if len(out) == 0 {
		t.Fatal("trained stride prefetcher issued nothing")
	}
	// Distance 4 strides of 64 B from line 4 → line 8, degree 2 → 8,9.
	if out[0] != 8 || out[len(out)-1] != 9 {
		t.Fatalf("prefetch targets = %v, want [8 9]", out)
	}
}

func TestStrideResetsOnIrregular(t *testing.T) {
	s := mustStride(t, DefaultStrideConfig())
	pc := ref.PC(1)
	for i := 0; i < 8; i++ {
		s.Observe(0, pc, uint64(i), true, nil)
	}
	// A random jump must reset confidence: the next access issues nothing.
	out := s.Observe(0, pc, 1000, true, nil)
	if len(out) != 0 {
		t.Fatalf("issued %v immediately after a stride break", out)
	}
	// And one further access with a new stride is still below threshold.
	out = s.Observe(0, pc, 1001, true, nil)
	if len(out) != 0 {
		t.Fatalf("issued %v with confidence 1 < threshold", out)
	}
}

func TestStrideMistrainOnShortBursts(t *testing.T) {
	// Short strided bursts at random bases — the cigar pattern — must leave
	// the prefetcher issuing lines past every burst end.
	s := mustStride(t, StrideConfig{TableSize: 16, Threshold: 2, MaxConf: 4, Degree: 2, Distance: 4})
	pc := ref.PC(9)
	useless := 0
	for burst := 0; burst < 10; burst++ {
		base := uint64(burst * 1000000)
		burstLines := map[uint64]bool{}
		for i := uint64(0); i < 8; i++ {
			burstLines[base+i] = true
		}
		for i := uint64(0); i < 8; i++ {
			for _, line := range s.Observe(0, pc, base+i, true, nil) {
				if !burstLines[line] {
					useless++
				}
			}
		}
	}
	if useless == 0 {
		t.Fatal("expected overshoot past burst ends")
	}
}

func TestStreamDetectsAndPrefetchesAhead(t *testing.T) {
	s := mustStream(t, StreamConfig{Streams: 4, TrainHits: 2, MaxAhead: 4})
	var out []uint64
	for i := 0; i < 6; i++ {
		out = s.Observe(int64(i), 0, uint64(i), true, nil)
	}
	if len(out) == 0 {
		t.Fatal("trained streamer issued nothing")
	}
	for _, l := range out {
		if l <= 5 {
			t.Fatalf("streamer prefetched behind the stream: %v", out)
		}
	}
}

func TestStreamDescending(t *testing.T) {
	s := mustStream(t, StreamConfig{Streams: 4, TrainHits: 2, MaxAhead: 2})
	start := uint64(100)
	var out []uint64
	for i := uint64(0); i < 5; i++ {
		out = s.Observe(int64(i), 0, start-i, true, nil)
	}
	if len(out) == 0 {
		t.Fatal("descending stream not detected")
	}
	for _, l := range out {
		if l >= start-4 {
			t.Fatalf("descending prefetch went the wrong way: %v", out)
		}
	}
}

func TestStreamIgnoresHitsForAllocation(t *testing.T) {
	s := mustStream(t, DefaultStreamConfig())
	if out := s.Observe(0, 0, 5, false, nil); len(out) != 0 {
		t.Fatal("hit allocated a stream")
	}
}

func TestAdjacentBuddy(t *testing.T) {
	a := NewAdjacent()
	if out := a.Observe(0, 0, 6, true, nil); len(out) != 1 || out[0] != 7 {
		t.Fatalf("buddy of 6 = %v, want [7]", out)
	}
	if out := a.Observe(0, 0, 7, true, nil); len(out) != 1 || out[0] != 6 {
		t.Fatalf("buddy of 7 = %v, want [6]", out)
	}
	if out := a.Observe(0, 0, 8, false, nil); len(out) != 0 {
		t.Fatal("adjacent issued on a hit")
	}
}

func TestEngineReset(t *testing.T) {
	s := mustStride(t, DefaultStrideConfig())
	pc := ref.PC(2)
	for i := 0; i < 6; i++ {
		s.Observe(0, pc, uint64(i), true, nil)
	}
	s.Reset()
	if out := s.Observe(0, pc, 6, true, nil); len(out) != 0 {
		t.Fatalf("reset did not clear training: %v", out)
	}
}
