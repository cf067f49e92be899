// Package memsys assembles the full memory system of one simulated socket:
// per-core private L1 and L2 caches, a shared last-level cache (LLC), a
// bandwidth-limited DRAM channel, and optional hardware prefetch engines at
// the L1 and L2. It implements the access path for demand loads/stores,
// software prefetches (normal and non-temporal) and hardware prefetches,
// with the traffic accounting the paper's evaluation is built on.
package memsys

import (
	"fmt"

	"prefetchlab/internal/cache"
	"prefetchlab/internal/dram"
	"prefetchlab/internal/hwpref"
	"prefetchlab/internal/ref"
)

// Config describes a socket's memory system.
type Config struct {
	Cores int

	L1  cache.Config
	L2  cache.Config
	LLC cache.Config

	// Total load-to-use latencies in cycles for hits at each level. The
	// one-cycle issue cost charged by the core is included, so the stall
	// returned for an L1 hit is L1Lat-1.
	L1Lat, L2Lat, LLCLat int64

	DRAM dram.Config

	// Hardware prefetchers: constructors invoked once per core (L1) and once
	// per core (L2; a single socket-level streamer would serialize training
	// across cores). Nil means no engine at that level. NewL2B allows a
	// second L2 engine (Intel pairs a streamer with the adjacent-line
	// prefetcher).
	NewL1Pref  func() (hwpref.Engine, error)
	NewL2Pref  func() (hwpref.Engine, error)
	NewL2PrefB func() (hwpref.Engine, error)

	// HWPrefEnabled turns the hardware engines on. The paper's baseline is
	// always "hardware prefetching turned off".
	HWPrefEnabled bool

	// ThrottleBacklog, when > 0, drops hardware prefetches while the channel
	// backlog exceeds this many cycles — the contention throttling modern
	// processors apply (§I notes it exists but still wastes traffic).
	ThrottleBacklog int64

	// SWPrefToL2, when true, makes software prefetches fill the L2 (and
	// LLC) but not the L1 — the "prefetches from L2 alone" ablation the
	// paper mentions in §VII-A (libquantum +4 %, lbm +3 %, soplex +1.3 %).
	SWPrefToL2 bool

	// OOOWindow is the core's reorder-window size in instructions; it
	// bounds how far execution runs past an incomplete load and therefore
	// the memory-level parallelism of independent misses. 0 selects the
	// VM default.
	OOOWindow int64
}

// CoreStats aggregates demand-path statistics for one core.
type CoreStats struct {
	Loads  int64
	Stores int64

	L1Misses  int64 // demand accesses missing L1
	L2Misses  int64 // demand accesses missing L2 (subset of L1Misses)
	LLCMisses int64 // demand accesses missing LLC (off-chip demand fetches)

	LoadStallCycles int64
	// LoadL1Misses / MissLatencyCycles measure the average latency per L1
	// load miss — the "latency" input of the paper's cost/benefit test
	// (§V), measured with performance counters on real hardware.
	LoadL1Misses      int64
	MissLatencyCycles int64

	// Off-chip fetch traffic in bytes by requester.
	DemandFetchBytes int64
	SWFetchBytes     int64
	HWFetchBytes     int64
	WritebackBytes   int64

	SWPrefIssued    int64 // software prefetch instructions executed
	SWPrefUseful    int64 // sw prefetches that actually fetched a missing line
	SWPrefRedundant int64 // sw prefetches filtered because the line was in L1
	HWPrefIssued    int64 // hardware prefetch fills initiated
	HWPrefRedundant int64 // hw prefetch candidates filtered as already cached
	HWPrefDropped   int64 // hardware prefetches dropped by throttling
}

// FetchBytes returns total off-chip fetch traffic (excluding writebacks).
func (s CoreStats) FetchBytes() int64 {
	return s.DemandFetchBytes + s.SWFetchBytes + s.HWFetchBytes
}

// TotalTraffic returns all off-chip traffic including writebacks.
func (s CoreStats) TotalTraffic() int64 { return s.FetchBytes() + s.WritebackBytes }

type coreState struct {
	l1, l2   *cache.Cache
	l1Pref   hwpref.Engine
	l2Pref   hwpref.Engine
	l2PrefB  hwpref.Engine
	stats    CoreStats
	missByPC []int64 // demand L1 misses per PC
	accByPC  []int64 // demand accesses per PC
	prefBuf  []uint64
}

// Hierarchy is one socket's memory system.
type Hierarchy struct {
	cfg   Config
	cores []coreState
	llc   *cache.Cache
	chan_ *dram.Channel
	// privateLines tags line addresses with the owning core so distinct
	// co-running programs cannot alias each other in the shared LLC; see
	// SetPrivateLines.
	privateLines bool
}

// New builds a hierarchy from cfg.
func New(cfg Config) (*Hierarchy, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("memsys: bad core count %d", cfg.Cores)
	}
	ch, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, chan_: ch}
	llc, err := cache.New(cfg.LLC)
	if err != nil {
		return nil, err
	}
	h.llc = llc
	h.cores = make([]coreState, cfg.Cores)
	for i := range h.cores {
		c := &h.cores[i]
		if c.l1, err = cache.New(cfg.L1); err != nil {
			return nil, err
		}
		if c.l2, err = cache.New(cfg.L2); err != nil {
			return nil, err
		}
		if cfg.NewL1Pref != nil {
			if c.l1Pref, err = cfg.NewL1Pref(); err != nil {
				return nil, err
			}
		}
		if cfg.NewL2Pref != nil {
			if c.l2Pref, err = cfg.NewL2Pref(); err != nil {
				return nil, err
			}
		}
		if cfg.NewL2PrefB != nil {
			if c.l2PrefB, err = cfg.NewL2PrefB(); err != nil {
				return nil, err
			}
		}
	}
	return h, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Channel exposes the DRAM channel (for bandwidth metrics).
func (h *Hierarchy) Channel() *dram.Channel { return h.chan_ }

// LLC exposes the shared cache (for pollution statistics).
func (h *Hierarchy) LLC() *cache.Cache { return h.llc }

// CoreStats returns a copy of core c's statistics.
func (h *Hierarchy) CoreStats(c int) CoreStats { return h.cores[c].stats }

// CoreCacheStats returns copies of core c's private L1 and L2 level
// statistics (for observability snapshots and summaries).
func (h *Hierarchy) CoreCacheStats(c int) (l1, l2 cache.Stats) {
	return h.cores[c].l1.Stats(), h.cores[c].l2.Stats()
}

// L1MissByPC returns core c's per-PC demand L1 miss counts (live slice).
func (h *Hierarchy) L1MissByPC(c int) []int64 { return h.cores[c].missByPC }

// AccessByPC returns core c's per-PC demand access counts (live slice).
func (h *Hierarchy) AccessByPC(c int) []int64 { return h.cores[c].accByPC }

// SetCorePCs sizes core c's per-PC counters for a program with n static
// memory instructions. Must be called before the core issues accesses.
func (h *Hierarchy) SetCorePCs(c, n int) {
	h.cores[c].missByPC = make([]int64, n)
	h.cores[c].accByPC = make([]int64, n)
}

// ResetCore clears core c's private caches, engines and statistics (used
// when a mix slot restarts with a different program).
func (h *Hierarchy) ResetCore(c int) {
	cs := &h.cores[c]
	cs.l1.Reset()
	cs.l2.Reset()
	if cs.l1Pref != nil {
		cs.l1Pref.Reset()
	}
	if cs.l2Pref != nil {
		cs.l2Pref.Reset()
	}
	if cs.l2PrefB != nil {
		cs.l2PrefB.Reset()
	}
	cs.stats = CoreStats{}
	for i := range cs.missByPC {
		cs.missByPC[i] = 0
	}
	for i := range cs.accByPC {
		cs.accByPC[i] = 0
	}
}

// grow extends a per-PC counter slice so pc indexes it, for programs whose
// PC count was not registered via SetCorePCs.
func grow(s []int64, pc ref.PC) []int64 {
	for int(pc) >= len(s) {
		s = append(s, 0)
	}
	return s
}

// SetPrivateLines switches the hierarchy between shared and private
// address spaces. The builders give every program the same address layout,
// so when distinct programs co-run on the socket their lines alias in the
// shared LLC and manufacture cross-application hits that have no physical
// counterpart — co-scheduled SPEC instances own disjoint memory. Under
// private lines each core's line addresses are tagged with the core index
// (in bits the arena allocator never reaches) before any cache or
// prefetcher sees them. The mixed-workload methodology (cpu.RunMix)
// enables it; single-program and SPMD parallel runs keep it off, since
// their cores genuinely share data (and core 0 alone is unaffected by the
// tag either way).
func (h *Hierarchy) SetPrivateLines(on bool) { h.privateLines = on }

// coreLine maps a reference to its cache-line key, tagging the core index
// into bit 48 and up under private-lines mode (arena addresses stay far
// below 2^48, so prefetcher stride arithmetic never carries into the tag).
func (h *Hierarchy) coreLine(c int, r ref.Ref) uint64 {
	line := r.Line()
	if h.privateLines {
		line |= uint64(c) << 48
	}
	return line
}

// Access performs one memory reference for core c at time now and returns
// the stall the core observes (0 for stores and prefetches). It implements
// the per-core half of isa.MemSystem.
func (h *Hierarchy) Access(c int, now int64, r ref.Ref) int64 {
	switch r.Kind {
	case ref.Load, ref.Store:
		return h.demand(c, now, r)
	case ref.Prefetch:
		h.swPrefetch(c, now, r, false)
		return 0
	case ref.PrefetchNTA:
		h.swPrefetch(c, now, r, true)
		return 0
	default:
		// lint:allow nopanic (exhaustive-switch assertion over ref.Kind; unreachable unless a new kind is added without a case)
		panic("memsys: unknown ref kind")
	}
}

// demand walks the hierarchy for a demand load/store.
func (h *Hierarchy) demand(c int, now int64, r ref.Ref) int64 {
	cs := &h.cores[c]
	line := h.coreLine(c, r)
	isStore := r.Kind == ref.Store
	if isStore {
		cs.stats.Stores++
	} else {
		cs.stats.Loads++
	}
	if r.PC != ref.InvalidPC {
		cs.accByPC = grow(cs.accByPC, r.PC)
		cs.accByPC[r.PC]++
	}

	var lat int64
	wait, hitL1 := cs.l1.Lookup(line, now)
	missL1 := !hitL1
	if hitL1 {
		lat = h.cfg.L1Lat + wait
		if isStore {
			cs.l1.Touch(line, true)
		}
	} else {
		cs.stats.L1Misses++
		if r.PC != ref.InvalidPC {
			cs.missByPC = grow(cs.missByPC, r.PC)
			cs.missByPC[r.PC]++
		}
		lat = h.fillFromL2(c, now, r, line, isStore)
		if !isStore {
			cs.stats.LoadL1Misses++
			cs.stats.MissLatencyCycles += lat
		}
	}

	// Train hardware prefetchers.
	if h.cfg.HWPrefEnabled {
		if cs.l1Pref != nil {
			cs.prefBuf = cs.l1Pref.Observe(now, r.PC, line, missL1, cs.prefBuf[:0])
			h.issueHW(c, now, cs.prefBuf, 1)
		}
	}

	if isStore {
		return 0 // write buffer: stores do not stall the core
	}
	stall := lat - 1 // the core already charged the 1-cycle issue
	if stall < 0 {
		stall = 0
	}
	cs.stats.LoadStallCycles += stall
	return stall
}

// fillFromL2 handles a demand L1 miss: L2 → LLC → DRAM, installing the line
// on the way back. Returns the total load-to-use latency.
func (h *Hierarchy) fillFromL2(c int, now int64, r ref.Ref, line uint64, isStore bool) int64 {
	cs := &h.cores[c]
	var lat int64
	var readyAt int64

	wait, hitL2 := cs.l2.Lookup(line, now)
	if hitL2 {
		lat = h.cfg.L2Lat + wait
		readyAt = now + lat
	} else {
		cs.stats.L2Misses++
		wait, hitLLC := h.llc.Lookup(line, now)
		if hitLLC {
			lat = h.cfg.LLCLat + wait
			readyAt = now + lat
		} else {
			cs.stats.LLCMisses++
			completeAt := h.chan_.Transfer(now+h.cfg.LLCLat, ref.LineSize)
			lat = completeAt - now
			readyAt = completeAt
			cs.stats.DemandFetchBytes += ref.LineSize
			h.installLLC(c, line, now, cache.FillOpts{Src: cache.FillDemand, ReadyAt: readyAt, Used: true})
		}
		h.installL2(c, line, now, cache.FillOpts{Src: cache.FillDemand, ReadyAt: readyAt, Used: true})

		// L2-level hardware prefetchers observe the miss stream.
		if h.cfg.HWPrefEnabled {
			if cs.l2Pref != nil {
				cs.prefBuf = cs.l2Pref.Observe(now, r.PC, line, !hitLLC, cs.prefBuf[:0])
				h.issueHW(c, now, cs.prefBuf, 2)
			}
			if cs.l2PrefB != nil {
				cs.prefBuf = cs.l2PrefB.Observe(now, r.PC, line, !hitLLC, cs.prefBuf[:0])
				h.issueHW(c, now, cs.prefBuf, 2)
			}
		}
	}
	h.installL1(c, line, now, cache.FillOpts{Dirty: isStore, Src: cache.FillDemand, ReadyAt: readyAt, Used: true})
	return lat
}

// swPrefetch implements PREFETCHT0 (nta=false) and PREFETCHNTA (nta=true).
func (h *Hierarchy) swPrefetch(c int, now int64, r ref.Ref, nta bool) {
	cs := &h.cores[c]
	cs.stats.SWPrefIssued++
	line := h.coreLine(c, r)
	if !h.cfg.SWPrefToL2 && cs.l1.Probe(line) {
		cs.stats.SWPrefRedundant++
		return // already (or about to be) in L1
	}
	var readyAt int64
	wait, hitL2 := cs.l2.Lookup(line, now)
	switch {
	case hitL2:
		readyAt = now + h.cfg.L2Lat + wait
	default:
		wait, hitLLC := h.llc.Lookup(line, now)
		if hitLLC {
			readyAt = now + h.cfg.LLCLat + wait
		} else {
			completeAt := h.chan_.Transfer(now+h.cfg.LLCLat, ref.LineSize)
			readyAt = completeAt
			cs.stats.SWFetchBytes += ref.LineSize
			cs.stats.SWPrefUseful++
			if !nta {
				// PREFETCHT0 installs throughout the hierarchy.
				h.installLLC(c, line, now, cache.FillOpts{Src: cache.FillSW, ReadyAt: readyAt})
			}
		}
		if !nta || h.cfg.SWPrefToL2 {
			h.installL2(c, line, now, cache.FillOpts{Src: cache.FillSW, ReadyAt: readyAt})
		}
	}
	if h.cfg.SWPrefToL2 {
		return // L2-target ablation: do not touch the L1
	}
	h.installL1(c, line, now, cache.FillOpts{NT: nta, Src: cache.FillSW, ReadyAt: readyAt})
}

// issueHW issues hardware prefetch candidates produced at the given level
// (1 = fills L1+L2+LLC, 2 = fills L2+LLC).
func (h *Hierarchy) issueHW(c int, now int64, lines []uint64, level int) {
	if len(lines) == 0 {
		return
	}
	cs := &h.cores[c]
	for _, line := range lines {
		if h.cfg.ThrottleBacklog > 0 && h.chan_.Backlog(now) > h.cfg.ThrottleBacklog {
			cs.stats.HWPrefDropped++
			continue
		}
		if level == 1 && cs.l1.Probe(line) {
			cs.stats.HWPrefRedundant++
			continue
		}
		if cs.l2.Probe(line) {
			cs.stats.HWPrefRedundant++
			if level == 1 {
				h.installL1(c, line, now, cache.FillOpts{Src: cache.FillHW, ReadyAt: now + h.cfg.L2Lat})
			}
			continue
		}
		var readyAt int64
		if h.llc.Probe(line) {
			readyAt = now + h.cfg.LLCLat
		} else {
			readyAt = h.chan_.Transfer(now+h.cfg.LLCLat, ref.LineSize)
			cs.stats.HWFetchBytes += ref.LineSize
			h.installLLC(c, line, now, cache.FillOpts{Src: cache.FillHW, ReadyAt: readyAt})
		}
		cs.stats.HWPrefIssued++
		h.installL2(c, line, now, cache.FillOpts{Src: cache.FillHW, ReadyAt: readyAt})
		if level == 1 {
			h.installL1(c, line, now, cache.FillOpts{Src: cache.FillHW, ReadyAt: readyAt})
		}
	}
}

// installL1 installs a line into core c's L1 and routes the victim.
func (h *Hierarchy) installL1(c int, line uint64, now int64, opts cache.FillOpts) {
	cs := &h.cores[c]
	victim, evicted := cs.l1.Insert(line, now, opts)
	if !evicted {
		return
	}
	if victim.NT {
		// Non-temporal lines bypass L2/LLC: dirty data goes straight to
		// DRAM, clean data is dropped (§VI-B).
		if victim.Dirty {
			h.chan_.Transfer(now, ref.LineSize)
			cs.stats.WritebackBytes += ref.LineSize
		}
		return
	}
	if victim.Dirty {
		// Write-back into L2 (mark dirty there, installing if absent).
		if !cs.l2.Touch(victim.Tag, true) {
			h.installL2(c, victim.Tag, now, cache.FillOpts{Dirty: true, Src: victim.Src, Used: victim.Used})
		}
	}
}

// installL2 installs a line into core c's L2 and routes the victim.
func (h *Hierarchy) installL2(c int, line uint64, now int64, opts cache.FillOpts) {
	cs := &h.cores[c]
	victim, evicted := cs.l2.Insert(line, now, opts)
	if !evicted {
		return
	}
	if victim.Dirty {
		if !h.llc.Touch(victim.Tag, true) {
			h.installLLC(c, victim.Tag, now, cache.FillOpts{Dirty: true, Src: victim.Src, Used: victim.Used})
		}
	}
}

// installLLC installs a line into the shared LLC and writes back the victim.
func (h *Hierarchy) installLLC(c int, line uint64, now int64, opts cache.FillOpts) {
	cs := &h.cores[c]
	victim, evicted := h.llc.Insert(line, now, opts)
	if evicted && victim.Dirty {
		h.chan_.Transfer(now, ref.LineSize)
		cs.stats.WritebackBytes += ref.LineSize
	}
}

// TotalTraffic sums off-chip traffic (bytes) across all cores.
func (h *Hierarchy) TotalTraffic() int64 {
	var t int64
	for i := range h.cores {
		t += h.cores[i].stats.TotalTraffic()
	}
	return t
}

// CoreMem adapts one core of the hierarchy to isa.MemSystem.
type CoreMem struct {
	H    *Hierarchy
	Core int
}

// Access implements isa.MemSystem.
func (m CoreMem) Access(now int64, r ref.Ref) int64 { return m.H.Access(m.Core, now, r) }
