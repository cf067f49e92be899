// Package obs is the engine's zero-dependency observability layer: a
// hierarchical stats registry that snapshots the simulated machine after
// each task, a span tracer that exports Chrome trace_event JSON (loadable
// in Perfetto or chrome://tracing), a live progress ticker, and pprof
// self-profiling hooks.
//
// Everything here is off by default and nil-safe: a nil *Obs, *Stats,
// *Tracer or *Progress turns every method into a no-op, so the simulation
// paths carry instrumentation calls without branching at the call sites
// and produce byte-identical figure output whether or not observability
// is enabled.
//
// Determinism contract: the stats registry records simulation counters
// only — never wall-clock times — under deterministic keys, and exports
// them sorted by key. A study run at -workers 1 and -workers 8 therefore
// serializes to byte-identical stats JSON. The trace, by contrast, records
// real scheduling (wall time, worker ids, queue waits) and is expected to
// differ run to run.
package obs

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"prefetchlab/internal/cache"
	"prefetchlab/internal/cpu"
	"prefetchlab/internal/memsys"
)

// LevelStats is one cache level's counter snapshot (a flattened
// cache.Stats plus the derived demand miss ratio).
type LevelStats struct {
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	MissRatio  float64 `json:"miss_ratio"`
	LateHits   int64   `json:"late_hits"`
	Fills      int64   `json:"fills"`
	Evictions  int64   `json:"evictions"`
	Writebacks int64   `json:"writebacks"`
	// UselessSW/UselessHW count evicted never-used prefetched lines — the
	// paper's useless-prefetch pollution, split by prefetch source.
	UselessSW int64 `json:"useless_sw_evicted"`
	UselessHW int64 `json:"useless_hw_evicted"`
}

// levelFrom flattens a cache.Stats.
func levelFrom(s cache.Stats) LevelStats {
	l := LevelStats{
		Hits: s.Hits, Misses: s.Misses, LateHits: s.LateHits,
		Fills: s.Fills, Evictions: s.Evictions, Writebacks: s.Writebacks,
		UselessSW: s.UselessSW, UselessHW: s.UselessHW,
	}
	if acc := s.Hits + s.Misses; acc > 0 {
		l.MissRatio = float64(s.Misses) / float64(acc)
	}
	return l
}

// PrefetchStats is the per-core prefetch usefulness breakdown: issued,
// useful (fetched a line that was off-chip), redundant (filtered because
// the line was already cached) and throttled counts for both prefetch
// sources. Late and useless-evicted prefetches are per cache level and
// live in LevelStats.
type PrefetchStats struct {
	SWIssued    int64 `json:"sw_issued"`
	SWUseful    int64 `json:"sw_useful"`
	SWRedundant int64 `json:"sw_redundant"`
	HWIssued    int64 `json:"hw_issued"`
	HWRedundant int64 `json:"hw_redundant"`
	HWDropped   int64 `json:"hw_dropped"`
}

// DemandStats is the per-core demand-path breakdown, including the
// pipeline-facing miss latency the paper's cost/benefit test consumes.
type DemandStats struct {
	Loads           int64 `json:"loads"`
	Stores          int64 `json:"stores"`
	L1Misses        int64 `json:"l1_misses"`
	L2Misses        int64 `json:"l2_misses"`
	LLCMisses       int64 `json:"llc_misses"`
	LoadStallCycles int64 `json:"load_stall_cycles"`
	// AvgMissLatency is MissLatencyCycles / LoadL1Misses — the average
	// load-to-use latency per L1 load miss in cycles.
	AvgMissLatency float64 `json:"avg_miss_latency_cycles"`
}

// TrafficStats is the off-chip traffic split by requester, in bytes.
type TrafficStats struct {
	DemandFetch int64 `json:"demand_fetch_bytes"`
	SWFetch     int64 `json:"sw_fetch_bytes"`
	HWFetch     int64 `json:"hw_fetch_bytes"`
	Writeback   int64 `json:"writeback_bytes"`
	Total       int64 `json:"total_bytes"`
}

// DRAMStats is the shared channel's snapshot.
type DRAMStats struct {
	Transfers        int64 `json:"transfers"`
	Bytes            int64 `json:"bytes"`
	QueueDelayCycles int64 `json:"queue_delay_cycles"`
	BusyCycles       int64 `json:"busy_cycles"`
}

// CoreSnapshot is one core's end-of-task state: execution summary, demand
// path, prefetch usefulness, traffic split, and the private L1/L2 levels.
type CoreSnapshot struct {
	Core         int           `json:"core"`
	Bench        string        `json:"bench,omitempty"`
	Cycles       int64         `json:"cycles"`
	Instructions int64         `json:"instructions"`
	MemRefs      int64         `json:"mem_refs"`
	Demand       DemandStats   `json:"demand"`
	Prefetch     PrefetchStats `json:"prefetch"`
	Traffic      TrafficStats  `json:"traffic"`
	L1           LevelStats    `json:"l1"`
	L2           LevelStats    `json:"l2"`
}

// MachineSnapshot is the hierarchical state of one simulated socket after
// a task: per-core private levels, the shared LLC, and the DRAM channel.
type MachineSnapshot struct {
	Machine string         `json:"machine"`
	Cores   []CoreSnapshot `json:"cores"`
	LLC     LevelStats     `json:"llc"`
	DRAM    DRAMStats      `json:"dram"`
}

// CaptureMachine walks a hierarchy after a task and builds its snapshot.
// apps aligns with cores 0..len(apps)-1 and contributes each core's
// execution summary (bench name, first-completion cycles); cache and
// traffic counters reflect the hierarchy's end-of-task state, which for
// restarting mix runs includes activity past each app's first completion.
func CaptureMachine(machineName string, h *memsys.Hierarchy, apps []cpu.Result) MachineSnapshot {
	snap := MachineSnapshot{Machine: machineName, LLC: levelFrom(h.LLC().Stats())}
	d := h.Channel().Stats()
	snap.DRAM = DRAMStats{Transfers: d.Transfers, Bytes: d.Bytes, QueueDelayCycles: d.QueueDelay, BusyCycles: d.BusyCycles}
	for c := 0; c < len(apps) && c < h.Config().Cores; c++ {
		cs := h.CoreStats(c)
		l1, l2 := h.CoreCacheStats(c)
		core := CoreSnapshot{
			Core:         c,
			Bench:        apps[c].Name,
			Cycles:       apps[c].Cycles,
			Instructions: apps[c].Instructions,
			MemRefs:      apps[c].MemRefs,
			Demand: DemandStats{
				Loads: cs.Loads, Stores: cs.Stores,
				L1Misses: cs.L1Misses, L2Misses: cs.L2Misses, LLCMisses: cs.LLCMisses,
				LoadStallCycles: cs.LoadStallCycles,
			},
			Prefetch: PrefetchStats{
				SWIssued: cs.SWPrefIssued, SWUseful: cs.SWPrefUseful, SWRedundant: cs.SWPrefRedundant,
				HWIssued: cs.HWPrefIssued, HWRedundant: cs.HWPrefRedundant, HWDropped: cs.HWPrefDropped,
			},
			Traffic: TrafficStats{
				DemandFetch: cs.DemandFetchBytes, SWFetch: cs.SWFetchBytes,
				HWFetch: cs.HWFetchBytes, Writeback: cs.WritebackBytes,
				Total: cs.TotalTraffic(),
			},
			L1: levelFrom(l1),
			L2: levelFrom(l2),
		}
		if cs.LoadL1Misses > 0 {
			core.Demand.AvgMissLatency = float64(cs.MissLatencyCycles) / float64(cs.LoadL1Misses)
		}
		snap.Cores = append(snap.Cores, core)
	}
	return snap
}

// Stats is the registry of machine snapshots, keyed by deterministic task
// keys (e.g. "solo/Intel Sandy Bridge/lbm/in0/Soft. Pref.+NT"). A nil
// *Stats is a no-op sink. Recording the same key twice keeps the last
// snapshot; with deterministic task keys both writes carry identical data.
//
// Cells the engine gave up on (retry budget exhausted under a failure
// budget) are recorded via RecordSkip and exported in a separate "skipped"
// section, so degraded studies state explicitly what is missing.
type Stats struct {
	mu      sync.Mutex
	snaps   map[string]MachineSnapshot
	skipped map[string]string // task key -> reason
	faults  any               // fault-handling tallies (set only when non-zero)
	server  any               // serving-layer snapshot (prefetchd only)
	static  any               // static-vs-sampled agreement (static-validate only)

	// Persist, when non-nil, is invoked after every Record with the key and
	// encoded snapshot — the checkpoint hook. Called under the registry
	// lock; keep it quick. Encoding failures are ignored (snapshot types
	// are plain data and always encode).
	Persist func(key string, data []byte)
}

// NewStats creates an empty registry.
func NewStats() *Stats {
	return &Stats{snaps: make(map[string]MachineSnapshot), skipped: make(map[string]string)}
}

// Record stores a snapshot under key. No-op on a nil registry.
func (s *Stats) Record(key string, snap MachineSnapshot) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.snaps[key] = snap
	delete(s.skipped, key) // a late success supersedes an earlier skip
	if s.Persist != nil {
		if data, err := EncodeSnapshot(snap); err == nil {
			s.Persist(key, data)
		}
	}
	s.mu.Unlock()
}

// RecordSkip marks a task key as skipped, with a short reason. A key that
// already has a recorded snapshot is not marked. No-op on nil.
func (s *Stats) RecordSkip(key, reason string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if _, ok := s.snaps[key]; !ok {
		if s.skipped == nil {
			s.skipped = make(map[string]string)
		}
		s.skipped[key] = reason
	}
	s.mu.Unlock()
}

// Skipped returns the number of skipped task keys (0 on nil).
func (s *Stats) Skipped() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.skipped)
}

// SetServer attaches a serving-layer snapshot (admission, shed and breaker
// counters) exported under the "server" key. CLI runs never set it, so
// their stats JSON stays byte-identical to earlier releases. No-op on nil.
func (s *Stats) SetServer(v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.server = v
	s.mu.Unlock()
}

// SetFaults attaches the fault-handling tallies (retries, skipped cells,
// replays, cancellations) exported under the "faults" key. Fault-free runs
// never set it, so their stats JSON stays byte-identical to earlier
// releases. No-op on nil.
func (s *Stats) SetFaults(v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.faults = v
	s.mu.Unlock()
}

// SetStatic attaches the static-analysis agreement summary (per-benchmark
// stride-classification agreement and MRC error vs the sampled tier)
// exported under the "static" key. Runs that never touch the static tier
// never set it, so their stats JSON stays byte-identical to earlier
// releases. No-op on nil.
func (s *Stats) SetStatic(v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.static = v
	s.mu.Unlock()
}

// Len returns the number of recorded snapshots (0 on nil).
func (s *Stats) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.snaps)
}

// Get returns the snapshot recorded under key.
func (s *Stats) Get(key string) (MachineSnapshot, bool) {
	if s == nil {
		return MachineSnapshot{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.snaps[key]
	return snap, ok
}

// taskSnapshot is one exported registry entry.
type taskSnapshot struct {
	Task string `json:"task"`
	MachineSnapshot
}

// skippedTask is one exported skipped-cell entry.
type skippedTask struct {
	Task   string `json:"task"`
	Reason string `json:"reason"`
}

// WriteJSON serializes the registry sorted by task key, so the bytes are
// identical for identical simulation runs regardless of worker count or
// completion order. Skipped cells, if any, are exported in a trailing
// "skipped" section (omitted entirely for fault-free runs, keeping their
// output byte-identical to builds without failure handling).
func (s *Stats) WriteJSON(w io.Writer) error {
	var out struct {
		Tasks   []taskSnapshot `json:"tasks"`
		Skipped []skippedTask  `json:"skipped,omitempty"`
		Faults  any            `json:"faults,omitempty"`
		Server  any            `json:"server,omitempty"`
		Static  any            `json:"static,omitempty"`
	}
	out.Tasks = []taskSnapshot{} // export [] rather than null when empty
	if s != nil {
		s.mu.Lock()
		out.Faults = s.faults
		out.Server = s.server
		out.Static = s.static
		keys := make([]string, 0, len(s.snaps))
		for k := range s.snaps {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out.Tasks = append(out.Tasks, taskSnapshot{Task: k, MachineSnapshot: s.snaps[k]})
		}
		skeys := make([]string, 0, len(s.skipped))
		for k := range s.skipped {
			skeys = append(skeys, k)
		}
		sort.Strings(skeys)
		for _, k := range skeys {
			out.Skipped = append(out.Skipped, skippedTask{Task: k, Reason: s.skipped[k]})
		}
		s.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// LevelAgg is one cache level's counters summed across every recorded
// snapshot.
type LevelAgg struct {
	Hits      int64
	Misses    int64
	UselessSW int64
	UselessHW int64
}

func (a *LevelAgg) add(l LevelStats) {
	a.Hits += l.Hits
	a.Misses += l.Misses
	a.UselessSW += l.UselessSW
	a.UselessHW += l.UselessHW
}

// Aggregate is the registry-wide counter rollup exported on /metrics:
// cache hits/misses and useless-prefetch evictions per level, the prefetch
// usefulness breakdown per source, and off-chip DRAM traffic, summed over
// every recorded machine snapshot. It is a monitoring convenience, not a
// simulation result — per-task detail stays in the stats JSON.
type Aggregate struct {
	Snapshots    int64
	SkippedCells int64

	L1  LevelAgg
	L2  LevelAgg
	LLC LevelAgg

	DRAMTransfers int64
	DRAMBytes     int64

	SWIssued    int64
	SWUseful    int64
	SWRedundant int64
	HWIssued    int64
	HWRedundant int64
	HWDropped   int64
}

// Aggregate sums every recorded snapshot (zero on nil).
func (s *Stats) Aggregate() Aggregate {
	var a Aggregate
	if s == nil {
		return a
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a.Snapshots = int64(len(s.snaps))
	a.SkippedCells = int64(len(s.skipped))
	for _, snap := range s.snaps {
		a.LLC.add(snap.LLC)
		a.DRAMTransfers += snap.DRAM.Transfers
		a.DRAMBytes += snap.DRAM.Bytes
		for _, core := range snap.Cores {
			a.L1.add(core.L1)
			a.L2.add(core.L2)
			a.SWIssued += core.Prefetch.SWIssued
			a.SWUseful += core.Prefetch.SWUseful
			a.SWRedundant += core.Prefetch.SWRedundant
			a.HWIssued += core.Prefetch.HWIssued
			a.HWRedundant += core.Prefetch.HWRedundant
			a.HWDropped += core.Prefetch.HWDropped
		}
	}
	return a
}

// EncodeSnapshot gob-encodes a snapshot for checkpoint persistence.
func EncodeSnapshot(snap MachineSnapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot reverses EncodeSnapshot.
func DecodeSnapshot(data []byte) (MachineSnapshot, error) {
	var snap MachineSnapshot
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap)
	return snap, err
}

// SoloKey builds the registry key of a solo (single-core) run.
func SoloKey(machine, bench string, inputID int, policy string) string {
	return fmt.Sprintf("solo/%s/%s/in%d/%s", machine, bench, inputID, policy)
}
