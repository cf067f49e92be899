package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prefetchlab/internal/cpu"
	"prefetchlab/internal/memsys"
	"prefetchlab/internal/sched"
)

// Obs bundles the observability sinks threaded through the engine: the
// stats registry, the span tracer and the progress ticker — any subset may
// be nil. A nil *Obs disables everything; all methods are nil-safe, so the
// engine carries one optional pointer instead of per-sink plumbing.
//
// Obs implements sched.TaskObserver and sched.CacheObserver: attach it to
// a Pool (or OnceMap) and every engine task becomes a trace span carrying
// its worker id and queue wait, every single-flight cache computation a
// span, every cache hit an instant — while the progress ticker counts
// batch totals and completions.
// Obs also implements sched.FaultObserver, so retries, skipped cells,
// checkpoint replays and batch cancellations show up as trace instants and
// are tallied for the end-of-run fault summary, and sched.WorkObserver, so
// the serving layer can export live workers-busy gauges.
//
// ForRequest derives a per-request view whose trace events carry the
// request id while every tally still lands on the root Obs — the serving
// layer's correlation mechanism.
type Obs struct {
	Stats    *Stats
	Trace    *Tracer
	Progress *Progress

	// root, when non-nil, marks this Obs as a ForRequest child: counters
	// delegate there so /metrics sees one process-wide tally.
	root *Obs

	retries  atomic.Int64
	skips    atomic.Int64
	replays  atomic.Int64
	canceled atomic.Int64

	tasksAdded atomic.Int64
	tasksDone  atomic.Int64
	tasksBusy  atomic.Int64

	cacheMu   sync.Mutex
	cacheHits map[string]int64
	cacheMiss map[string]int64
}

// counters resolves where tallies accumulate: the root Obs for ForRequest
// children, the receiver otherwise. Caller guarantees o != nil.
func (o *Obs) counters() *Obs {
	if o.root != nil {
		return o.root
	}
	return o
}

// ForRequest derives a request-scoped view of o: same stats registry,
// progress ticker and counter tallies, but a trace handle that stamps
// request_id onto every span and instant recorded through it — so engine
// task spans triggered by an HTTP request are correlatable with the
// access log and client retry logs. A nil o or empty id returns o.
func (o *Obs) ForRequest(id string) *Obs {
	if o == nil || id == "" {
		return o
	}
	return &Obs{
		Stats:    o.Stats,
		Trace:    o.Trace.WithArgs(map[string]any{"request_id": id}),
		Progress: o.Progress,
		root:     o.counters(),
	}
}

// SchedObserver returns o as a sched.TaskObserver, or nil for a nil o —
// use it when attaching to a Pool so a disabled Obs costs the pool
// nothing (a typed-nil interface would defeat the pool's nil check).
func (o *Obs) SchedObserver() sched.TaskObserver {
	if o == nil {
		return nil
	}
	return o
}

// CacheObserver returns o as a sched.CacheObserver, or nil for a nil o.
func (o *Obs) CacheObserver() sched.CacheObserver {
	if o == nil {
		return nil
	}
	return o
}

// BatchStart implements sched.TaskObserver.
func (o *Obs) BatchStart(batch string, n int) {
	if o == nil {
		return
	}
	o.counters().tasksAdded.Add(int64(n))
	o.Progress.Add(n)
}

// TaskDone implements sched.TaskObserver: one span per engine task, named
// after its batch, with the worker id and queue wait in args.
func (o *Obs) TaskDone(batch string, task, worker int, queued, start, end time.Time, err error) {
	if o == nil {
		return
	}
	o.counters().tasksDone.Add(1)
	name := fmt.Sprintf("%s[%d]", batch, task)
	if batch == "" {
		name = fmt.Sprintf("task[%d]", task)
	}
	args := map[string]any{
		"worker":        worker,
		"queue_wait_us": float64(start.Sub(queued)) / float64(time.Microsecond),
	}
	if err != nil {
		args["error"] = err.Error()
	}
	o.Trace.EmitSpan("task", name, start, end, args)
	o.Progress.Done(1)
}

// TaskStarted implements sched.WorkObserver: a worker began executing a
// task attempt.
func (o *Obs) TaskStarted(batch string, index, worker int) {
	if o == nil {
		return
	}
	o.counters().tasksBusy.Add(1)
}

// TaskFinished implements sched.WorkObserver: the worker is done with the
// task (success, final failure, or cancellation) — always paired with
// TaskStarted.
func (o *Obs) TaskFinished(batch string, index, worker int) {
	if o == nil {
		return
	}
	o.counters().tasksBusy.Add(-1)
}

// CacheDone implements sched.CacheObserver: single-flight cache misses
// (the expensive computations) become spans; hits become instants. Hits
// and misses are tallied per cache for the /metrics hit-ratio export.
func (o *Obs) CacheDone(cache, key string, hit bool, start, end time.Time) {
	if o == nil {
		return
	}
	c := o.counters()
	c.cacheMu.Lock()
	if c.cacheHits == nil {
		c.cacheHits = make(map[string]int64)
		c.cacheMiss = make(map[string]int64)
	}
	if hit {
		c.cacheHits[cache]++
	} else {
		c.cacheMiss[cache]++
	}
	c.cacheMu.Unlock()
	if hit {
		o.Trace.Instant("cache", fmt.Sprintf("%s hit %s", cache, key), map[string]any{
			"wait_us": float64(end.Sub(start)) / float64(time.Microsecond),
		})
		return
	}
	o.Trace.EmitSpan("cache", fmt.Sprintf("%s compute %s", cache, key), start, end, nil)
}

// CacheCounts returns per-cache hit/miss tallies, cache names sorted.
func (o *Obs) CacheCounts() []CacheCount {
	if o == nil {
		return nil
	}
	c := o.counters()
	c.cacheMu.Lock()
	names := make([]string, 0, len(c.cacheHits)+len(c.cacheMiss))
	seen := make(map[string]bool)
	for n := range c.cacheHits {
		if !seen[n] {
			names = append(names, n)
			seen[n] = true
		}
	}
	for n := range c.cacheMiss {
		if !seen[n] {
			names = append(names, n)
			seen[n] = true
		}
	}
	sort.Strings(names)
	out := make([]CacheCount, len(names))
	for i, n := range names {
		out[i] = CacheCount{Cache: n, Hits: c.cacheHits[n], Misses: c.cacheMiss[n]}
	}
	c.cacheMu.Unlock()
	return out
}

// CacheCount is one single-flight cache's cumulative hit/miss tally.
type CacheCount struct {
	Cache  string
	Hits   int64
	Misses int64
}

// TaskRetry implements sched.FaultObserver: a failed attempt that will be
// retried becomes a trace instant and bumps the retry tally.
func (o *Obs) TaskRetry(batch string, index, attempt int, err error) {
	if o == nil {
		return
	}
	o.counters().retries.Add(1)
	o.Trace.Instant("fault", fmt.Sprintf("retry %s[%d] attempt %d", batch, index, attempt), map[string]any{
		"error": err.Error(),
	})
}

// TaskSkipped implements sched.FaultObserver: a cell abandoned after its
// retry budget, absorbed by the batch's failure budget.
func (o *Obs) TaskSkipped(batch string, index int, err error) {
	if o == nil {
		return
	}
	o.counters().skips.Add(1)
	o.Trace.Instant("fault", fmt.Sprintf("skip %s[%d]", batch, index), map[string]any{
		"error": err.Error(),
	})
}

// TaskReplayed implements sched.FaultObserver: a task satisfied from the
// checkpoint instead of re-executing.
func (o *Obs) TaskReplayed(batch string, index int) {
	if o == nil {
		return
	}
	o.counters().replays.Add(1)
	o.Trace.Instant("fault", fmt.Sprintf("replay %s[%d]", batch, index), nil)
}

// BatchCanceled implements sched.FaultObserver.
func (o *Obs) BatchCanceled(batch string, done, total int) {
	if o == nil {
		return
	}
	o.counters().canceled.Add(1)
	o.Trace.Instant("fault", fmt.Sprintf("canceled %s at %d/%d", batch, done, total), nil)
}

// FaultCounts is the cumulative fault-handling tally, exported in
// -stats-json (via PublishFaults) and mirrored onto /metrics.
type FaultCounts struct {
	Retries         int64 `json:"retries"`
	SkippedCells    int64 `json:"skipped_cells"`
	ReplayedTasks   int64 `json:"replayed_tasks"`
	CanceledBatches int64 `json:"canceled_batches"`
}

// Any reports whether any counter is non-zero.
func (f FaultCounts) Any() bool {
	return f.Retries != 0 || f.SkippedCells != 0 || f.ReplayedTasks != 0 || f.CanceledBatches != 0
}

// FaultCounts returns the current fault tallies (zero on nil).
func (o *Obs) FaultCounts() FaultCounts {
	if o == nil {
		return FaultCounts{}
	}
	c := o.counters()
	return FaultCounts{
		Retries:         c.retries.Load(),
		SkippedCells:    c.skips.Load(),
		ReplayedTasks:   c.replays.Load(),
		CanceledBatches: c.canceled.Load(),
	}
}

// PublishFaults copies the fault tallies into the stats registry so the
// end-of-run -stats-json carries them alongside the trace instants. Runs
// without fault activity set nothing, keeping fault-free stats output
// byte-identical to earlier releases. Replayed-task counts are excluded:
// they tally checkpoint resumes, not faults, and a resumed run must emit
// the same stats file as an uninterrupted one (replays still show on the
// stderr fault summary and the /metrics gauge). No-op when o or the
// registry is nil.
func (o *Obs) PublishFaults() {
	if o == nil || o.Stats == nil {
		return
	}
	fc := o.FaultCounts()
	fc.ReplayedTasks = 0
	if fc.Any() {
		o.Stats.SetFaults(fc)
	}
}

// SchedCounts is the live scheduler tally for the /metrics gauges.
type SchedCounts struct {
	TasksAdded int64 // tasks enqueued across all batches
	TasksDone  int64 // tasks finished (including replays)
	TasksBusy  int64 // task attempts executing right now
}

// SchedCounts returns the current scheduler tallies (zero on nil).
func (o *Obs) SchedCounts() SchedCounts {
	if o == nil {
		return SchedCounts{}
	}
	c := o.counters()
	return SchedCounts{
		TasksAdded: c.tasksAdded.Load(),
		TasksDone:  c.tasksDone.Load(),
		TasksBusy:  c.tasksBusy.Load(),
	}
}

// FaultSummary describes fault-handling activity this run, or "" if none —
// suitable for a one-line stderr report.
func (o *Obs) FaultSummary() string {
	if o == nil {
		return ""
	}
	fc := o.FaultCounts()
	if !fc.Any() {
		return ""
	}
	return fmt.Sprintf("faults: %d retries, %d skipped cells, %d replayed tasks, %d canceled batches",
		fc.Retries, fc.SkippedCells, fc.ReplayedTasks, fc.CanceledBatches)
}

// Span opens a live trace span; the returned func (never nil) ends it.
func (o *Obs) Span(cat, name string, args map[string]any) func() {
	if o == nil {
		return func() {}
	}
	return o.Trace.Span(cat, name, args)
}

// RecordMachine snapshots a hierarchy into the stats registry under key.
// No-op when o or the registry is nil.
func (o *Obs) RecordMachine(key, machineName string, h *memsys.Hierarchy, apps []cpu.Result) {
	if o == nil || o.Stats == nil {
		return
	}
	o.Stats.Record(key, CaptureMachine(machineName, h, apps))
}

// RecordSnapshot stores an externally built snapshot — e.g. the analytic
// tier's synthesized machine state, which has no hierarchy to walk — in the
// stats registry under key. No-op when o or the registry is nil.
func (o *Obs) RecordSnapshot(key string, snap MachineSnapshot) {
	if o == nil || o.Stats == nil {
		return
	}
	o.Stats.Record(key, snap)
}

// RecordSkipped marks key as a skipped cell in the stats registry, with a
// short reason. No-op when o or the registry is nil.
func (o *Obs) RecordSkipped(key, reason string) {
	if o == nil || o.Stats == nil {
		return
	}
	o.Stats.RecordSkip(key, reason)
}

// RecordStatic attaches the static-vs-sampled agreement summary to the
// stats registry's "static" section. No-op when o or the registry is nil.
func (o *Obs) RecordStatic(v any) {
	if o == nil || o.Stats == nil {
		return
	}
	o.Stats.SetStatic(v)
}

// StopProgress stops the progress ticker, if any.
func (o *Obs) StopProgress() {
	if o == nil {
		return
	}
	o.Progress.Stop()
}
