package serve

import (
	"runtime"
	"time"

	"prefetchlab/internal/obs/prom"
	"prefetchlab/internal/tenant"
)

// wireScrape registers every scrape-time-sampled family on the server's
// Prometheus registry: admission and breaker gauges, scheduler occupancy,
// fault and cache mirrors from the Obs tallies, the stats-registry
// aggregate, and Go runtime stats. The families are registered once here
// (so the exposition's family set is fixed at startup) and their values
// refreshed by an OnScrape hook just before every render.
func (s *Server) wireScrape() {
	reg := s.reg

	inflight := reg.Gauge("prefetchd_http_inflight",
		"Heavy requests executing right now.")
	queued := reg.Gauge("prefetchd_http_queued",
		"Heavy requests waiting for an execution slot.")
	maxInflight := reg.Gauge("prefetchd_http_max_inflight",
		"Configured heavy-request concurrency cap.")
	queueDepth := reg.Gauge("prefetchd_http_queue_depth",
		"Configured admission queue capacity.")
	draining := reg.Gauge("prefetchd_draining",
		"1 while the server is draining, 0 otherwise.")
	uptime := reg.Gauge("prefetchd_uptime_seconds",
		"Seconds since the server started.")

	breaker := reg.GaugeVec("prefetchd_breaker_state",
		"1 for the circuit breaker's current state, 0 for the other two.", "state")
	breakerStates := map[string]*prom.Gauge{
		BreakerClosed.String():   breaker.With(BreakerClosed.String()),
		BreakerOpen.String():     breaker.With(BreakerOpen.String()),
		BreakerHalfOpen.String(): breaker.With(BreakerHalfOpen.String()),
	}
	probeOutcomes := reg.CounterVec("prefetchd_breaker_half_open_probes_total",
		"Half-open breaker probes, by outcome (success closes the breaker, failure reopens it).", "outcome")
	probeSuccess := probeOutcomes.With("success")
	probeFailure := probeOutcomes.With("failure")

	tasksTotal := reg.Counter("prefetchlab_sched_tasks_total",
		"Engine tasks enqueued across all batches.")
	tasksDone := reg.Counter("prefetchlab_sched_tasks_completed_total",
		"Engine tasks finished (including checkpoint replays).")
	tasksBusy := reg.Gauge("prefetchlab_sched_tasks_busy",
		"Engine task attempts executing right now.")
	tasksQueued := reg.Gauge("prefetchlab_sched_tasks_queued",
		"Engine tasks enqueued but neither executing nor finished.")
	retries := reg.Counter("prefetchlab_sched_retries_total",
		"Failed task attempts that were retried.")
	skippedCells := reg.Counter("prefetchlab_sched_skipped_cells_total",
		"Tasks abandoned after their retry budget and absorbed by a failure budget.")
	replayed := reg.Counter("prefetchlab_sched_replayed_tasks_total",
		"Tasks satisfied from a checkpoint instead of re-executing.")
	canceledBatches := reg.Counter("prefetchlab_sched_canceled_batches_total",
		"Batches stopped by context cancellation.")

	cacheReq := reg.CounterVec("prefetchlab_cache_requests_total",
		"Single-flight cache lookups, by cache and result (hit or miss).", "cache", "result")

	// Per-tenant admission families. Every configured tenant's series are
	// pre-registered (zeros included) so the exposition layout is fixed at
	// startup and never depends on which tenants happened to send traffic.
	tenantAdmitted := reg.CounterVec("prefetchd_tenant_admitted_total",
		"Heavy requests granted an execution slot, by tenant.", "tenant")
	tenantShed := reg.CounterVec("prefetchd_tenant_shed_total",
		"Heavy requests shed before execution, by tenant and reason (rate_limit, quota, queue_full, draining).",
		"tenant", "reason")
	tenantInflight := reg.GaugeVec("prefetchd_tenant_inflight",
		"Heavy requests executing right now, by tenant.", "tenant")
	tenantQueued := reg.GaugeVec("prefetchd_tenant_queued",
		"Heavy requests waiting in the fair-share queue, by tenant.", "tenant")
	for _, name := range s.tenants.Names() {
		tenantAdmitted.With(name)
		tenantInflight.With(name)
		tenantQueued.With(name)
		for _, reason := range tenant.ShedReasons() {
			tenantShed.With(name, reason)
		}
	}

	// Result-cache families: registered only when a cache is attached, so
	// cacheless deployments don't export misleading zeros (the obsAgg
	// pattern below). Hits/misses join prefetchlab_cache_requests_total
	// under cache="result".
	var resultCacheSample func()
	if s.cache.Enabled() {
		corrupt := reg.Counter("prefetchlab_result_cache_corrupt_total",
			"Disk cache entries that failed CRC/format verification and were quarantined instead of served.")
		quarantined := reg.Counter("prefetchlab_result_cache_quarantined_total",
			"Corrupt disk cache entries successfully moved aside for inspection.")
		evictions := reg.CounterVec("prefetchlab_result_cache_evictions_total",
			"Result cache evictions, by tier (mem LRU bound, disk GC).", "tier")
		evictMem := evictions.With("mem")
		evictDisk := evictions.With("disk")
		entries := reg.GaugeVec("prefetchlab_result_cache_entries",
			"Result cache entries resident right now, by tier.", "tier")
		entriesMem := entries.With("mem")
		entriesDisk := entries.With("disk")
		cacheBytes := reg.GaugeVec("prefetchlab_result_cache_bytes",
			"Result cache bytes resident right now, by tier.", "tier")
		bytesMem := cacheBytes.With("mem")
		bytesDisk := cacheBytes.With("disk")
		resultCacheSample = func() {
			cs := s.cache.Stats()
			corrupt.Set(cs.Corrupt)
			quarantined.Set(cs.Quarantined)
			evictMem.Set(cs.EvictMem)
			evictDisk.Set(cs.EvictDisk)
			entriesMem.Set(float64(cs.MemEntries))
			entriesDisk.Set(float64(cs.DiskEntries))
			bytesMem.Set(float64(cs.MemBytes))
			bytesDisk.Set(float64(cs.DiskBytes))
			// The result cache keeps its own authoritative hit/miss tally;
			// sampling it here (after the CacheCounts loop) guarantees the
			// family carries cache="result" even when no Obs is attached.
			cacheReq.With("result", "hit").Set(cs.Hits)
			cacheReq.With("result", "miss").Set(cs.Misses)
		}
	}

	goroutines := reg.Gauge("go_goroutines", "Live goroutines.")
	heapAlloc := reg.Gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.")
	heapObjects := reg.Gauge("go_heap_objects", "Number of allocated heap objects.")
	gcCycles := reg.Counter("go_gc_cycles_total", "Completed GC cycles.")
	gcPause := reg.Gauge("go_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time in seconds (monotonic).")

	// The stats-registry aggregate is only meaningful when a registry is
	// attached (prefetchd -stats-json / -checkpoint); without one the
	// families are omitted rather than exporting misleading zeros.
	var obsAgg func()
	if o := s.cfg.Obs; o != nil && o.Stats != nil {
		stats := o.Stats
		hits := reg.CounterVec("prefetchlab_obs_cache_hits_total",
			"Simulated cache hits summed over recorded snapshots, by level.", "level")
		misses := reg.CounterVec("prefetchlab_obs_cache_misses_total",
			"Simulated cache misses summed over recorded snapshots, by level.", "level")
		useless := reg.CounterVec("prefetchlab_obs_useless_prefetch_evictions_total",
			"Prefetched lines evicted unused, by level and prefetch source.", "level", "source")
		issued := reg.CounterVec("prefetchlab_obs_prefetches_issued_total",
			"Prefetches issued, by source.", "source")
		useful := reg.Counter("prefetchlab_obs_sw_prefetches_useful_total",
			"Software prefetches that fetched an off-chip line.")
		redundant := reg.CounterVec("prefetchlab_obs_prefetches_redundant_total",
			"Prefetches filtered because the line was already cached, by source.", "source")
		hwDropped := reg.Counter("prefetchlab_obs_hw_prefetches_dropped_total",
			"Hardware prefetches dropped by throttling.")
		dramBytes := reg.Counter("prefetchlab_obs_dram_bytes_total",
			"Off-chip DRAM traffic in bytes summed over recorded snapshots.")
		dramTransfers := reg.Counter("prefetchlab_obs_dram_transfers_total",
			"Off-chip DRAM transfers summed over recorded snapshots.")
		snapshots := reg.Gauge("prefetchlab_obs_snapshots",
			"Machine snapshots currently in the stats registry.")
		skippedSnaps := reg.Gauge("prefetchlab_obs_skipped_cells",
			"Task cells currently marked skipped in the stats registry.")
		levelSet := func(vec *prom.CounterVec, l1, l2, llc int64) {
			vec.With("l1").Set(l1)
			vec.With("l2").Set(l2)
			vec.With("llc").Set(llc)
		}
		obsAgg = func() {
			a := stats.Aggregate()
			levelSet(hits, a.L1.Hits, a.L2.Hits, a.LLC.Hits)
			levelSet(misses, a.L1.Misses, a.L2.Misses, a.LLC.Misses)
			useless.With("l1", "sw").Set(a.L1.UselessSW)
			useless.With("l1", "hw").Set(a.L1.UselessHW)
			useless.With("l2", "sw").Set(a.L2.UselessSW)
			useless.With("l2", "hw").Set(a.L2.UselessHW)
			useless.With("llc", "sw").Set(a.LLC.UselessSW)
			useless.With("llc", "hw").Set(a.LLC.UselessHW)
			issued.With("sw").Set(a.SWIssued)
			issued.With("hw").Set(a.HWIssued)
			useful.Set(a.SWUseful)
			redundant.With("sw").Set(a.SWRedundant)
			redundant.With("hw").Set(a.HWRedundant)
			hwDropped.Set(a.HWDropped)
			dramBytes.Set(a.DRAMBytes)
			dramTransfers.Set(a.DRAMTransfers)
			snapshots.Set(float64(a.Snapshots))
			skippedSnaps.Set(float64(a.SkippedCells))
		}
	}

	reg.OnScrape(func() {
		curInflight := s.heavy.Inflight()
		curQueued := s.heavy.Queued()
		capInflight, capQueue := s.heavy.Capacity()
		inflight.Set(float64(curInflight))
		queued.Set(float64(curQueued))
		maxInflight.Set(float64(capInflight))
		queueDepth.Set(float64(capQueue))

		for _, ts := range s.heavy.Snapshots() {
			tenantAdmitted.With(ts.Name).Set(ts.Admitted)
			tenantShed.With(ts.Name, tenant.ShedRateLimit).Set(ts.ShedRate)
			tenantShed.With(ts.Name, tenant.ShedQuota).Set(ts.ShedQuota)
			tenantShed.With(ts.Name, tenant.ShedQueueFull).Set(ts.ShedQueue)
			tenantShed.With(ts.Name, tenant.ShedDraining).Set(ts.ShedDrain)
			tenantInflight.With(ts.Name).Set(float64(ts.Inflight))
			tenantQueued.With(ts.Name).Set(float64(ts.Queued))
		}
		if s.Draining() {
			draining.Set(1)
		} else {
			draining.Set(0)
		}
		uptime.Set(time.Since(s.start).Seconds())

		bs := s.breaker.Snapshot()
		for name, g := range breakerStates {
			if name == bs.State {
				g.Set(1)
			} else {
				g.Set(0)
			}
		}
		probeSuccess.Set(bs.ProbeSuccesses)
		probeFailure.Set(bs.ProbeFailures)

		sc := s.cfg.Obs.SchedCounts()
		tasksTotal.Set(sc.TasksAdded)
		tasksDone.Set(sc.TasksDone)
		tasksBusy.Set(float64(sc.TasksBusy))
		pending := sc.TasksAdded - sc.TasksDone - sc.TasksBusy
		if pending < 0 {
			pending = 0
		}
		tasksQueued.Set(float64(pending))
		fc := s.cfg.Obs.FaultCounts()
		retries.Set(fc.Retries)
		skippedCells.Set(fc.SkippedCells)
		replayed.Set(fc.ReplayedTasks)
		canceledBatches.Set(fc.CanceledBatches)

		for _, cc := range s.cfg.Obs.CacheCounts() {
			cacheReq.With(cc.Cache, "hit").Set(cc.Hits)
			cacheReq.With(cc.Cache, "miss").Set(cc.Misses)
		}

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapAlloc.Set(float64(ms.HeapAlloc))
		heapObjects.Set(float64(ms.HeapObjects))
		gcCycles.Set(int64(ms.NumGC))
		gcPause.Set(float64(ms.PauseTotalNs) / 1e9)

		if obsAgg != nil {
			obsAgg()
		}
		if resultCacheSample != nil {
			resultCacheSample()
		}
	})
}
