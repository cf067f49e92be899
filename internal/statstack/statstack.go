// Package statstack implements the StatStack statistical cache model
// (Eklöv & Hagersten, ISPASS 2010) used by the paper's §IV to turn sparse
// reuse-distance samples into application-level and per-instruction miss
// ratios for arbitrary cache sizes.
//
// Definitions (paper §III/§IV):
//
//   - reuse distance: the number of memory references (to any line) between
//     two consecutive accesses to the same cache line;
//   - stack distance: the number of *unique* cache lines accessed between a
//     line's reuse — the quantity that decides an LRU hit.
//
// StatStack estimates the expected stack distance of a reuse of distance R
// from the sampled reuse distribution alone: an intervening reference at
// distance j before the window's end contributes one unique line iff it is
// the last access to its own line within the window, i.e. iff its own reuse
// distance ≥ j-1. Summing those probabilities over the window,
//
//	sd(R) = Σ_{k=0}^{R-1} P(rd ≥ k)
//
// where P is the sampled reuse-distance survival function (samples whose
// watchpoint never fired — cold misses — count as infinite). A reference
// with reuse distance R then misses in a fully-associative LRU cache of L
// lines iff sd(R) ≥ L. Both the whole-application and per-instruction miss
// ratios fall out by evaluating this predicate over the relevant sample
// subsets, which is what the delinquent-load identification consumes.
package statstack

import (
	"math"
	"sort"

	"prefetchlab/internal/ref"
	"prefetchlab/internal/sampler"
)

// Model is a fitted StatStack model.
type Model struct {
	// all reuse distances, sorted ascending; cold samples are tracked
	// separately (conceptually +∞).
	rds    []int64
	prefix []float64 // prefix[i] = Σ_{j<i} (rds[j]+1)
	cold   int64
	// sdAt[i] = StackDist(rds[i]): the stack-distance curve at its
	// breakpoints, non-decreasing, so criticalRD inverts it with one
	// binary search.
	sdAt []float64

	perPC map[ref.PC]*pcSamples
}

type pcSamples struct {
	rds  []int64 // sorted
	cold int64
}

// Build fits a model to a sampling pass's output.
//
// Attribution: a sample pairs a first access (the watchpoint) with the next
// access to the same line. The distance is the *forward* reuse distance of
// the first access — which feeds the global survival function — and the
// *backward* reuse distance of the second access, which is what decides
// whether that second access hits; per-instruction miss ratios therefore
// group samples by the reusing PC. Dangling watchpoints (cold samples)
// enter the global histogram as infinite distances: each line's one
// never-reused last access balances its one compulsory first access, so the
// application-level distributions of forward and backward distances match.
func Build(s *sampler.Samples) *Model {
	m := &Model{perPC: make(map[ref.PC]*pcSamples)}
	m.rds = make([]int64, 0, len(s.Reuse))
	for _, r := range s.Reuse {
		m.rds = append(m.rds, r.Dist)
		ps := m.perPC[r.ReusePC]
		if ps == nil {
			ps = &pcSamples{}
			m.perPC[r.ReusePC] = ps
		}
		ps.rds = append(ps.rds, r.Dist)
	}
	m.cold = int64(len(s.Cold))
	sort.Slice(m.rds, func(i, j int) bool { return m.rds[i] < m.rds[j] })
	m.prefix = make([]float64, len(m.rds)+1)
	for i, rd := range m.rds {
		m.prefix[i+1] = m.prefix[i] + float64(rd+1)
	}
	m.sdAt = make([]float64, len(m.rds))
	first := 0 // index of the first duplicate of rds[i]: #samples < rds[i]
	for i, rd := range m.rds {
		if rd != m.rds[first] {
			first = i
		}
		m.sdAt[i] = m.segmentSD(first, rd)
	}
	// lint:allow detrand (each value is sorted independently; no cross-iteration state, so visit order cannot reach result bytes)
	for _, ps := range m.perPC {
		sort.Slice(ps.rds, func(i, j int) bool { return ps.rds[i] < ps.rds[j] })
	}
	return m
}

// Samples returns the number of reuse samples (finite + cold) in the model.
func (m *Model) Samples() int64 { return int64(len(m.rds)) + m.cold }

// PCs returns every instruction with at least one sample.
func (m *Model) PCs() []ref.PC {
	out := make([]ref.PC, 0, len(m.perPC))
	for pc := range m.perPC {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PCSampleCount returns the number of samples (finite + cold) for pc.
func (m *Model) PCSampleCount(pc ref.PC) int64 {
	ps := m.perPC[pc]
	if ps == nil {
		return 0
	}
	return int64(len(ps.rds)) + ps.cold
}

// StackDist estimates the expected stack distance of a reuse distance R:
//
//	sd(R) = Σ_{k=0}^{R-1} P(rd ≥ k) = (Σ_{rd_i < R}(rd_i+1) + R·#{rd_i ≥ R}) / N
//
// computed in O(log n) with prefix sums over the sorted sample set (one
// binary search for the number of samples below R). Cold samples count as
// rd = ∞.
func (m *Model) StackDist(rd int64) float64 {
	if rd < 0 {
		return 0
	}
	// idx = number of finite samples with value < rd.
	idx := sort.Search(len(m.rds), func(i int) bool { return m.rds[i] >= rd })
	return m.segmentSD(idx, rd)
}

// segmentSD is StackDist(rd) for an rd with exactly idx finite samples
// below it: sd is linear in rd between consecutive sample values, with
// slope #{rd_i ≥ rd}/N. Every caller evaluates sd through this one
// expression, so a value is the same float wherever it is computed.
func (m *Model) segmentSD(idx int, rd int64) float64 {
	n := float64(len(m.rds)) + float64(m.cold)
	if n == 0 {
		return 0
	}
	atLeast := float64(len(m.rds)-idx) + float64(m.cold)
	return (m.prefix[idx] + float64(rd)*atLeast) / n
}

// maxCriticalRD bounds the finite answers of criticalRD: a cache no reuse
// distance up to it reaches is reported as never missing.
const maxCriticalRD = 1 << 61

// criticalRD returns the smallest reuse distance whose expected stack
// distance reaches lines (misses in a cache of that many lines). Returns
// math.MaxInt64 if no finite reuse distance up to 2^61 can miss.
//
// sd is piecewise linear and non-decreasing in rd, with a breakpoint at
// every sample value, and segmentSD keeps that order: along one segment it
// is a chain of monotone float operations in rd, and where two segments
// meet each numerator Σ_{rd_i < R}(rd_i+1) + R·#{rd_i ≥ R} is an integer
// below 2^53 (the sampled distances sum to far less), so exact in
// float64, and one rounded division by N keeps the order. The predicate
// sd(rd) ≥ lines is therefore monotone and its smallest rd unique. One
// binary search over the precomputed breakpoint values sdAt finds the
// segment holding it, solving the segment's line for rd gives it to
// within rounding, and the exact predicate confirms it, in two
// evaluations of segmentSD unless the estimate is further off (then the
// segment is bisected). Cost: O(log n) plus O(1), against the ~80
// StackDist calls of an exponential-plus-binary search over rd.
func (m *Model) criticalRD(lines int64) int64 {
	if lines <= 0 {
		return 0
	}
	target := float64(lines)
	if m.StackDist(maxCriticalRD) < target {
		return math.MaxInt64
	}
	// j = first breakpoint whose sd reaches target. Duplicates share one
	// value, so j is the first of its run and exactly j samples lie below
	// every rd in (rds[j-1], rds[j]]; past the last sample, all of them do.
	j, hi := 0, len(m.sdAt)
	for j < hi {
		mid := int(uint(j+hi) >> 1)
		if m.sdAt[mid] >= target {
			hi = mid
		} else {
			j = mid + 1
		}
	}
	// The answer lies in [lo, top], and sd(top) reaches target. sd(0) = 0,
	// so it is at least 1.
	lo, top := int64(1), int64(maxCriticalRD)
	if j > 0 {
		lo = max(lo, m.rds[j-1]+1)
	}
	if j < len(m.rds) {
		top = min(top, m.rds[j])
	}
	// Solve prefix[j] + rd·atLeast = target·N for the first rd on the line.
	guess := lo
	n := float64(len(m.rds)) + float64(m.cold)
	if atLeast := float64(len(m.rds)-j) + float64(m.cold); atLeast > 0 {
		x := math.Ceil((target*n - m.prefix[j]) / atLeast)
		switch {
		case x >= float64(top):
			guess = top
		case x > float64(lo):
			guess = int64(x)
		}
	}
	// Probe the estimate and its neighbour first; bisect if it was off
	// by more than one.
	for probe := 0; lo < top; probe++ {
		mid := lo + (top-lo)/2
		if probe < 2 && guess >= lo && guess <= top {
			mid = guess
		}
		if m.segmentSD(j, mid) >= target {
			top = mid
			guess = mid - 1
		} else {
			lo = mid + 1
			guess = mid + 1
		}
	}
	return lo
}

// missRatioOf computes the miss ratio of a sorted sample subset for a cache
// of the given line count using the model-wide critical reuse distance.
func (m *Model) missRatioOf(rds []int64, cold int64, lines int64) float64 {
	n := float64(len(rds)) + float64(cold)
	if n == 0 {
		return 0
	}
	crit := m.criticalRD(lines)
	var missing float64
	if crit == math.MaxInt64 {
		missing = float64(cold)
	} else {
		idx := sort.Search(len(rds), func(i int) bool { return rds[i] >= crit })
		missing = float64(len(rds)-idx) + float64(cold)
	}
	return missing / n
}

// MissRatio models the whole application's miss ratio in a cache of
// sizeBytes (fully-associative LRU, 64 B lines).
func (m *Model) MissRatio(sizeBytes int64) float64 {
	return m.missRatioOf(m.rds, m.cold, sizeBytes/ref.LineSize)
}

// PCMissRatio models the miss ratio of a single instruction in a cache of
// sizeBytes. ok is false if the instruction has no samples.
func (m *Model) PCMissRatio(pc ref.PC, sizeBytes int64) (mr float64, ok bool) {
	ps := m.perPC[pc]
	if ps == nil || len(ps.rds)+int(ps.cold) == 0 {
		return 0, false
	}
	return m.missRatioOf(ps.rds, ps.cold, sizeBytes/ref.LineSize), true
}

// MRC evaluates the application miss-ratio curve at the given cache sizes
// (bytes).
func (m *Model) MRC(sizes []int64) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = m.MissRatio(s)
	}
	return out
}

// PCMRC evaluates one instruction's miss-ratio curve at the given cache
// sizes (bytes).
func (m *Model) PCMRC(pc ref.PC, sizes []int64) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i], _ = m.PCMissRatio(pc, s)
	}
	return out
}

// StandardSizes returns the cache-size sweep of the paper's Figure 3
// (8 kB … 8 MB, powers of two).
func StandardSizes() []int64 {
	sizes := make([]int64, 0, 11)
	for s := int64(8 << 10); s <= 8<<20; s <<= 1 {
		sizes = append(sizes, s)
	}
	return sizes
}
