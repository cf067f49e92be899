// Package sched is the deterministic worker-pool scheduler behind the
// parallel experiment engine. Every figure/table study decomposes into
// independent (workload × machine × policy × thread-count) simulation
// tasks; sched fans them out across workers and merges the results in
// task-index order, so a study's output is bit-identical at any worker
// count.
//
// Two invariants make that guarantee hold:
//
//   - Tasks are self-contained: each builds its own machine, memory
//     hierarchy, sampler and RNG stream (seeded from the task key, never
//     from shared mutable state), so no task observes another's progress.
//   - Results and errors are merged by task index, not completion order:
//     Map returns results[i] = fn(i), and on failure reports the error of
//     the lowest-indexed failing task regardless of which worker hit an
//     error first.
//
// On top of the deterministic merge the pool provides fault tolerance:
// context cancellation drains workers and returns the completed prefix
// plus ErrCanceled, a panicking task is recovered into a typed TaskError,
// failed tasks are retried deterministically up to MaxAttempts, MapOutcomes
// degrades gracefully under a per-batch failure budget (failed cells become
// explicit Skipped outcomes), and a Saver can persist/replay completed task
// values so an interrupted batch resumes without re-executing them.
package sched

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCanceled marks batch errors caused by context cancellation. The batch
// result accompanying it is the deterministic prefix of completed tasks.
var ErrCanceled = errors.New("sched: batch canceled")

// ErrBudgetExhausted marks batch errors caused by more final task failures
// than the pool's FailureBudget allows.
var ErrBudgetExhausted = errors.New("sched: failure budget exhausted")

// CanceledError reports a batch stopped by context cancellation. It wraps
// both ErrCanceled and the context's cause, so errors.Is works with either.
type CanceledError struct {
	Batch string
	// Done is the length of the completed prefix returned with the error.
	Done  int
	Total int
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sched: batch %q canceled after %d/%d tasks: %v",
		e.Batch, e.Done, e.Total, e.Cause)
}

func (e *CanceledError) Unwrap() []error {
	if e.Cause == nil {
		return []error{ErrCanceled}
	}
	return []error{ErrCanceled, e.Cause}
}

// BudgetError reports a batch that failed after exceeding its failure
// budget. It wraps ErrBudgetExhausted and the lowest-indexed final failure.
type BudgetError struct {
	Batch  string
	Budget int
	// Index and First identify the lowest-indexed task whose final failure
	// is known; earlier tasks may not have run when the batch stopped.
	Index int
	First error
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sched: batch %q exceeded its failure budget (%d): task %d: %v",
		e.Batch, e.Budget, e.Index, e.First)
}

func (e *BudgetError) Unwrap() []error { return []error{ErrBudgetExhausted, e.First} }

// TaskError is a recovered task panic converted into an error: the batch
// and index identify the task, Panic and Stack capture the recovered value
// and the goroutine stack at the panic site.
type TaskError struct {
	Batch    string
	Index    int
	Attempts int
	Err      error
	Panic    any
	Stack    []byte
}

func (e *TaskError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("sched: cache %q compute panicked: %v", e.Batch, e.Panic)
	}
	return fmt.Sprintf("sched: task %s[%d] failed after %d attempt(s): %v",
		e.Batch, e.Index, e.Attempts, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// TaskObserver receives batch and task lifecycle events from a Pool. It is
// the hook the observability layer (internal/obs) uses for span tracing and
// progress reporting; implementations must be safe for concurrent calls
// from every worker. Observers see wall-clock timing only — they must not
// influence task execution, so simulation results stay bit-identical
// whether or not an observer is attached.
type TaskObserver interface {
	// BatchStart reports that a Map/ForEach batch of n tasks is about to
	// run.
	BatchStart(batch string, n int)
	// TaskDone reports one finished task: its index, the worker that ran
	// it, when the batch was enqueued, when the task's final attempt
	// started and ended, and its final error (nil on success).
	// queued ≤ start ≤ end.
	TaskDone(batch string, task, worker int, queued, start, end time.Time, err error)
}

// FaultObserver is an optional extension of TaskObserver (discovered by
// type assertion on Pool.Obs) for fault-tolerance events: retries, skipped
// cells, checkpoint replays and batch cancellation.
type FaultObserver interface {
	// TaskRetry reports that attempt-1 of a task failed with err and the
	// task is about to run attempt (1-based count of completed attempts).
	TaskRetry(batch string, index, attempt int, err error)
	// TaskSkipped reports a task whose final failure was absorbed by the
	// batch's failure budget; its cell is reported as Skipped.
	TaskSkipped(batch string, index int, err error)
	// TaskReplayed reports a task whose value was restored from a Saver
	// checkpoint instead of executing.
	TaskReplayed(batch string, index int)
	// BatchCanceled reports a batch stopped by cancellation after done of
	// total tasks completed.
	BatchCanceled(batch string, done, total int)
}

// WorkObserver is an optional extension of TaskObserver (discovered by
// type assertion on Pool.Obs) for live worker occupancy: TaskStarted fires
// when a worker begins executing a task and TaskFinished when the worker is
// done with it (success, final failure or cancellation) — always paired, so
// started-minus-finished is the number of busy workers at any instant.
// Checkpoint replays execute nothing and emit neither event.
type WorkObserver interface {
	TaskStarted(batch string, index, worker int)
	TaskFinished(batch string, index, worker int)
}

// CacheObserver receives one event per OnceMap.Do call: whether the key was
// already present (hit — possibly waiting on an in-flight computation) or
// computed by this call (miss), and how long the call blocked.
type CacheObserver interface {
	CacheDone(cache, key string, hit bool, start, end time.Time)
}

// FaultHook injects deterministic faults into task attempts; it is called
// at the start of every attempt, inside the panic-recovery scope, so it may
// return an error, panic, or sleep. Decisions must be keyed only on
// (batch, index, attempt) so they are independent of worker count and
// schedule.
type FaultHook interface {
	Inject(batch string, index, attempt int) error
}

// FaultFunc adapts a plain function to the FaultHook interface.
type FaultFunc func(batch string, index, attempt int) error

// Inject implements FaultHook.
func (f FaultFunc) Inject(batch string, index, attempt int) error {
	return f(batch, index, attempt)
}

// Saver persists completed task values and replays them on resume. Lookup
// returns the stored bytes for a task (gob-encoded by the pool); Save
// stores them. Both must be safe for concurrent use. Values that cannot be
// gob-encoded (funcs, no exported fields) are silently not persisted, and
// records that fail to decode are re-executed.
type Saver interface {
	Lookup(batch string, index int) ([]byte, bool)
	Save(batch string, index int, data []byte)
}

// Outcome is one cell of a MapOutcomes batch: either a value (possibly
// replayed from a checkpoint) or a final error whose cell was skipped under
// the failure budget.
type Outcome[T any] struct {
	Value T
	// Err is the final error of a skipped cell (nil on success).
	Err error
	// Skipped marks a cell whose task failed all attempts and was absorbed
	// by the failure budget; Value is the zero value.
	Skipped bool
	// Replayed marks a value restored from a Saver checkpoint.
	Replayed bool
	// Attempts is the number of attempts executed (0 for replayed cells).
	Attempts int
}

// Pool fans independent tasks out across a bounded number of workers.
// The zero value uses runtime.NumCPU() workers, runs each task once, and
// fails batches on the first task error.
type Pool struct {
	// Workers caps concurrent tasks. <= 0 selects runtime.NumCPU();
	// 1 runs tasks serially in index order (useful for determinism
	// diffing and debugging).
	Workers int
	// Name labels this pool's batches in observer events.
	Name string
	// Obs, when non-nil, receives batch and task lifecycle events. If it
	// also implements FaultObserver it receives retry/skip/replay events.
	Obs TaskObserver
	// MaxAttempts caps how many times a failing (or panicking) task is
	// executed before its failure is final. <= 1 runs each task once.
	// Retries are deterministic: the same task retries the same way at any
	// worker count.
	MaxAttempts int
	// BackoffBase spaces retries: attempt k sleeps BackoffBase<<(k-1) plus
	// a deterministic task-keyed jitter. 0 retries immediately.
	BackoffBase time.Duration
	// FailureBudget governs MapOutcomes' graceful degradation: 0 fails the
	// batch on the first final task failure (Map's strict semantics), a
	// positive value absorbs up to that many failed tasks as Skipped cells,
	// and a negative value absorbs any number.
	FailureBudget int
	// Fault, when non-nil, injects faults into every task attempt.
	Fault FaultHook
	// Save, when non-nil, persists completed task values and replays them
	// on resume instead of re-executing.
	Save Saver
}

// Named returns a copy of the pool whose batches are labelled name in
// observer events.
func (p Pool) Named(name string) Pool { p.Name = name; return p }

// Serial is the one-worker pool: tasks run in index order on the calling
// goroutine's schedule, with no concurrency.
var Serial = Pool{Workers: 1}

// workers resolves the effective worker count for n tasks.
func (p Pool) workers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map evaluates fn(0) … fn(n-1) across the pool's workers and returns the
// results in index order. fn must be safe for concurrent invocation and
// must not depend on the invocation order of other indices. If any task
// fails all its attempts, Map returns a nil slice and the error of the
// lowest-indexed failing task (a *TaskError if it panicked); tasks not yet
// started when a failure is observed are skipped. If ctx is canceled, Map
// returns the deterministic prefix of completed results and a
// *CanceledError wrapping ErrCanceled.
func Map[T any](ctx context.Context, p Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	outs, err := runBatch(ctx, p, n, fn, true)
	if outs == nil {
		return nil, err
	}
	vals := make([]T, len(outs))
	for i, o := range outs {
		vals[i] = o.Value
	}
	return vals, err
}

// ForEach evaluates fn(0) … fn(n-1) across the pool's workers, discarding
// results. Error semantics match Map.
func ForEach(ctx context.Context, p Pool, n int, fn func(i int) error) error {
	p.Save = nil // no values to persist; side-effecting tasks must re-run on resume
	_, err := Map(ctx, p, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// MapOutcomes evaluates fn(0) … fn(n-1) like Map but degrades gracefully:
// a task whose final failure fits the pool's FailureBudget becomes an
// explicit Skipped outcome instead of failing the batch, preserving
// index-ordered determinism. Cancellation returns the completed prefix and
// a *CanceledError; exceeding the budget returns a *BudgetError.
func MapOutcomes[T any](ctx context.Context, p Pool, n int, fn func(i int) (T, error)) ([]Outcome[T], error) {
	return runBatch(ctx, p, n, fn, false)
}

// runBatch is the shared engine behind Map and MapOutcomes. strict forces
// a zero failure budget and unwrapped first-failure errors (Map's
// contract); otherwise the pool's FailureBudget applies.
func runBatch[T any](ctx context.Context, p Pool, n int, fn func(i int) (T, error), strict bool) ([]Outcome[T], error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		// lint:allow ctxflow (compatibility default for direct library callers that pass nil; every engine entry point above threads a real ctx)
		ctx = context.Background()
	}
	budget := p.FailureBudget
	if strict {
		budget = 0
	}
	fo, _ := p.Obs.(FaultObserver)
	wo, _ := p.Obs.(WorkObserver)
	outs := make([]Outcome[T], n)
	done := make([]atomic.Bool, n)
	w := p.workers(n)
	var queued time.Time
	if p.Obs != nil {
		p.Obs.BatchStart(p.Name, n)
		queued = time.Now()
	}
	var skips, failed atomic.Int64
	// handle records a finished task; it returns false when the task's
	// failure exceeds the budget and the batch must stop.
	handle := func(i int, o Outcome[T]) bool {
		if o.Err == nil {
			outs[i] = o
			done[i].Store(true)
			return true
		}
		if budget < 0 || skips.Add(1) <= int64(budget) {
			o.Skipped = true
			outs[i] = o
			done[i].Store(true)
			if fo != nil {
				fo.TaskSkipped(p.Name, i, o.Err)
			}
			return true
		}
		outs[i] = o
		failed.Store(1)
		return false
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			o := runTask(ctx, p, fo, wo, i, 0, queued, fn)
			if o.Err != nil && ctx.Err() != nil {
				break // canceled mid-task: not a task failure
			}
			if !handle(i, o) {
				return nil, batchError(p, budget, i, o.Err, strict)
			}
		}
		return finishBatch(ctx, p, fo, outs, done, n)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil || failed.Load() != 0 {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				o := runTask(ctx, p, fo, wo, i, worker, queued, fn)
				if o.Err != nil && ctx.Err() != nil {
					return // canceled mid-task: not a task failure
				}
				if !handle(i, o) {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if ctx.Err() == nil && failed.Load() != 0 {
		for i := range outs {
			if outs[i].Err != nil && !outs[i].Skipped {
				return nil, batchError(p, budget, i, outs[i].Err, strict)
			}
		}
	}
	return finishBatch(ctx, p, fo, outs, done, n)
}

// finishBatch resolves the batch result after workers drain: a full result
// set, or on cancellation the completed prefix plus a *CanceledError.
func finishBatch[T any](ctx context.Context, p Pool, fo FaultObserver, outs []Outcome[T], done []atomic.Bool, n int) ([]Outcome[T], error) {
	err := ctx.Err()
	if err == nil {
		return outs, nil
	}
	k := 0
	for k < n && done[k].Load() {
		k++
	}
	if k == n {
		return outs, nil // every task finished before the cancel landed
	}
	if fo != nil {
		fo.BatchCanceled(p.Name, k, n)
	}
	return outs[:k], &CanceledError{Batch: p.Name, Done: k, Total: n, Cause: err}
}

// batchError builds the error for a batch stopped by task failure: the raw
// lowest-indexed failure in strict mode, a *BudgetError otherwise.
func batchError(p Pool, budget, index int, err error, strict bool) error {
	if strict {
		return err
	}
	return &BudgetError{Batch: p.Name, Budget: budget, Index: index, First: err}
}

// runTask executes one task: checkpoint replay if available, otherwise up
// to MaxAttempts executions with panic recovery, fault injection and deterministic
// backoff. The observer sees one TaskDone event per task (the final
// attempt); intermediate failures surface as TaskRetry events.
func runTask[T any](ctx context.Context, p Pool, fo FaultObserver, wo WorkObserver, i, worker int, queued time.Time, fn func(i int) (T, error)) Outcome[T] {
	if p.Save != nil {
		if data, ok := p.Save.Lookup(p.Name, i); ok {
			var v T
			if err := gobDecode(data, &v); err == nil {
				if fo != nil {
					fo.TaskReplayed(p.Name, i)
				}
				if p.Obs != nil {
					now := time.Now()
					p.Obs.TaskDone(p.Name, i, worker, queued, now, now, nil)
				}
				return Outcome[T]{Value: v, Replayed: true}
			}
			// Undecodable record (e.g. the task type changed): re-execute.
		}
	}
	if wo != nil {
		wo.TaskStarted(p.Name, i, worker)
		defer wo.TaskFinished(p.Name, i, worker)
	}
	max := p.MaxAttempts
	if max < 1 {
		max = 1
	}
	var lastErr error
	attempts := 0
	for attempt := 0; attempt < max; attempt++ {
		if attempt > 0 {
			if fo != nil {
				fo.TaskRetry(p.Name, i, attempt, lastErr)
			}
			if !backoffSleep(ctx, p, i, attempt) {
				break // canceled while backing off
			}
		}
		start := time.Now()
		v, err := runAttempt(p, i, attempt, fn)
		attempts = attempt + 1
		if err == nil {
			if p.Obs != nil {
				p.Obs.TaskDone(p.Name, i, worker, queued, start, time.Now(), nil)
			}
			if p.Save != nil {
				if data, gerr := gobEncode(v); gerr == nil {
					p.Save.Save(p.Name, i, data)
				}
			}
			return Outcome[T]{Value: v, Attempts: attempts}
		}
		lastErr = err
		if attempt == max-1 || ctx.Err() != nil {
			if p.Obs != nil {
				p.Obs.TaskDone(p.Name, i, worker, queued, start, time.Now(), err)
			}
			break
		}
	}
	return Outcome[T]{Err: lastErr, Attempts: attempts}
}

// runAttempt executes one attempt of fn(i) with panic recovery; a panic
// becomes a *TaskError carrying the recovered value and stack. The fault
// hook runs inside the recovery scope so injected panics are isolated too.
func runAttempt[T any](p Pool, i, attempt int, fn func(i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &TaskError{
				Batch: p.Name, Index: i, Attempts: attempt + 1,
				Err: fmt.Errorf("panic: %v", r), Panic: r, Stack: debug.Stack(),
			}
		}
	}()
	if p.Fault != nil {
		if ferr := p.Fault.Inject(p.Name, i, attempt); ferr != nil {
			return v, ferr
		}
	}
	return fn(i)
}

// backoffSleep sleeps before retry attempt (1-based) of task index with a
// deterministic task-keyed jitter; it returns false if ctx was canceled
// before the sleep finished.
func backoffSleep(ctx context.Context, p Pool, index, attempt int) bool {
	if p.BackoffBase <= 0 {
		return ctx.Err() == nil
	}
	d := p.BackoffBase << (attempt - 1)
	if half := uint64(d / 2); half > 0 {
		d += time.Duration(taskHash(p.Name, index, attempt) % (half + 1))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// taskHash is a deterministic 64-bit key for (batch, index, attempt), used
// to seed backoff jitter independently of schedule and worker count.
func taskHash(batch string, index, attempt int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(batch))
	var b [16]byte
	for k := 0; k < 8; k++ {
		b[k] = byte(index >> (8 * k))
		b[8+k] = byte(attempt >> (8 * k))
	}
	h.Write(b[:])
	return h.Sum64()
}

// gobEncode serializes a task value for checkpointing.
func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gobDecode restores a checkpointed task value.
func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// isCancellation reports whether err stems from context cancellation (of
// either flavour) rather than a genuine task failure.
func isCancellation(err error) bool {
	return errors.Is(err, ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// OnceMap is a concurrent single-flight memoization map: the first caller
// of Do for a key computes the value while concurrent callers of the same
// key block and share the one result. It replaces check-then-insert cache
// patterns that, under a worker pool, would compute the same expensive
// profile or plan on several workers at once.
type OnceMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*onceEntry[V]
	// Name labels this cache in observer events. Set before concurrent use.
	Name string
	// Obs, when non-nil, receives one CacheDone event per Do call. Set
	// before concurrent use.
	Obs CacheObserver
}

type onceEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// Do returns the memoized value for key, computing it on first use. The
// computation's error is memoized too: every caller of a failed key
// observes the same error — except cancellation errors, whose entries are
// evicted so a resumed run retries the computation instead of observing a
// poisoned cache. A panicking compute is recovered into a *TaskError
// rather than marking the once done with a zero value.
func (om *OnceMap[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	om.mu.Lock()
	if om.m == nil {
		om.m = make(map[K]*onceEntry[V])
	}
	e := om.m[key]
	hit := e != nil
	if e == nil {
		e = &onceEntry[V]{}
		om.m[key] = e
	}
	om.mu.Unlock()
	run := func() {
		e.once.Do(func() {
			defer func() {
				if r := recover(); r != nil {
					e.err = &TaskError{
						Batch: om.Name, Index: -1, Attempts: 1,
						Err: fmt.Errorf("panic: %v", r), Panic: r, Stack: debug.Stack(),
					}
				}
			}()
			e.val, e.err = compute()
		})
	}
	if om.Obs == nil {
		run()
	} else {
		start := time.Now()
		run()
		om.Obs.CacheDone(om.Name, fmt.Sprint(key), hit, start, time.Now())
	}
	if e.err != nil && isCancellation(e.err) {
		om.mu.Lock()
		if om.m[key] == e {
			delete(om.m, key)
		}
		om.mu.Unlock()
	}
	return e.val, e.err
}

// Len returns the number of keys ever computed (or in flight).
func (om *OnceMap[K, V]) Len() int {
	om.mu.Lock()
	defer om.mu.Unlock()
	return len(om.m)
}
