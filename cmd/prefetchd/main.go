// Command prefetchd serves the prefetchlab experiment engine as a hardened
// long-running HTTP service: figures, MRC/StatStack queries and mix
// simulations over HTTP, with admission control, per-request deadlines, a
// circuit breaker around the engine, and graceful drain on SIGTERM.
//
// Usage:
//
//	prefetchd [flags]
//
// Endpoints (see EXPERIMENTS.md for the full table):
//
//	GET /healthz                   liveness + breaker/drain state
//	GET /readyz                    readiness (503 while draining or breaker open)
//	GET /metrics                   Prometheus text exposition
//	GET /api/v1/figures            experiment catalog + default config
//	GET /api/v1/figures/{name}     run one experiment (CLI-identical bytes)
//	GET /api/v1/mrc                StatStack miss-ratio curve of one benchmark
//	GET /api/v1/mix                one co-run mix under selected policies
//	GET /api/v1/stats              stats registry with live server section
//	GET /api/v1/metrics            serving-layer counters
//
// The first SIGINT/SIGTERM drains: readiness fails, new heavy requests
// shed with 503, in-flight requests finish, then stats/trace files are
// flushed atomically and the checkpoint is closed so a restarted server
// resumes long sweeps. A second signal while draining forces immediate
// exit with a distinct exit code.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"prefetchlab/internal/atomicio"
	"prefetchlab/internal/ckpt"
	"prefetchlab/internal/experiments"
	"prefetchlab/internal/faultinject"
	"prefetchlab/internal/obs"
	"prefetchlab/internal/resultcache"
	"prefetchlab/internal/sched"
	"prefetchlab/internal/serve"
	"prefetchlab/internal/tenant"
)

func main() {
	os.Exit(appMain(os.Args[1:], os.Stdout, os.Stderr))
}

// ForcedExitCode is the distinct exit code for a second SIGINT/SIGTERM
// delivered while the first drain is still in progress: the server is
// abandoned immediately instead of waiting on a stuck request.
const ForcedExitCode = 3

// forceExit is os.Exit behind a seam so the force-exit path is visible to
// tests (which exercise it through a helper subprocess).
var forceExit = os.Exit

// buildLogger assembles the structured logger from the -log-format and
// -log-level flags. Logs go to stderr alongside the daemon's lifecycle
// lines.
func buildLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

// appMain is the whole daemon behind an injectable argv and output
// streams, so tests can drive it end to end; it returns the process exit
// code. The bound address is announced on stderr as "listening on <addr>"
// (so -listen 127.0.0.1:0 is testable).
func appMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prefetchd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen           = fs.String("listen", "127.0.0.1:8437", "address to serve the HTTP API on (host:port; port 0 picks a free port)")
		maxInflight      = fs.Int("max-inflight", 0, "concurrently executing engine-backed requests (0 = engine worker count)")
		queueDepth       = fs.Int("queue-depth", 0, "admitted requests allowed to wait for a slot; beyond this requests shed with 429 (0 = 2x max-inflight, -1 = no queue)")
		requestTimeout   = fs.Duration("request-timeout", 2*time.Minute, "default per-request deadline, propagated through the engine; expiry returns 504 (0 = none)")
		maxReqTimeout    = fs.Duration("max-request-timeout", 10*time.Minute, "upper bound on a client's ?timeout= override")
		breakerThreshold = fs.Int("breaker-threshold", 5, "consecutive engine failures/timeouts that open the circuit breaker (-1 disables)")
		breakerCooldown  = fs.Duration("breaker-cooldown", 10*time.Second, "open interval before the breaker admits a half-open probe")
		retryAfter       = fs.Duration("retry-after", time.Second, "Retry-After hint attached to shed responses")
		drainTimeout     = fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight requests before aborting them")
		tenantsFile      = fs.String("tenants", "", "multi-tenant config file: one `name key [weight=N] [rate=R] [burst=N] [max-inflight=N]` per line; requests authenticate with Authorization: Bearer or X-API-Key (empty = single anonymous tenant)")

		cacheDir       = fs.String("result-cache", "", "serve repeated heavy requests from a content-addressed result cache persisted in this directory (empty = memory-only when -result-cache-entries is set, else disabled)")
		cacheEntries   = fs.Int("result-cache-entries", 0, "in-memory result cache entries (0 with -result-cache selects 256; 0 without it disables caching)")
		cacheDiskBytes = fs.Int64("result-cache-disk-bytes", 0, "disk budget for the result cache directory before oldest entries are evicted (0 = unbounded)")

		scale   = fs.Float64("scale", 1.0, "workload iteration scale (1.0 = default run lengths)")
		mixes   = fs.Int("mixes", 45, "number of random 4-app mixes for fig7-fig11 (paper: 180)")
		seed    = fs.Int64("seed", 42, "random seed for mixes and inputs")
		period  = fs.Int64("period", 4096, "mean references between profile samples")
		workers = fs.Int("workers", 0, "experiment engine workers (0 = all CPUs; results are identical at any setting)")
		benches = fs.String("benches", "", "comma-separated benchmark subset for the single-thread studies (default: all)")
		tier    = fs.String("tier", "sim", "default prediction tier: sim, analytic or static (clients may override per request with ?tier=)")

		logFormat   = fs.String("log-format", "text", "structured log format: text or json")
		logLevel    = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		slowRequest = fs.Duration("slow-request", 30*time.Second, "promote access-log lines of requests at or above this duration to warning (0 disables)")

		statsJSON  = fs.String("stats-json", "", "write stats snapshots plus the server metrics section to this JSON file at shutdown (atomic replace)")
		traceOut   = fs.String("trace", "", "write a Chrome trace_event JSON of engine tasks and HTTP spans to this file at shutdown (atomic replace)")
		checkpoint = fs.String("checkpoint", "", "persist completed default-config task results here and replay them on restart; resumed sweeps are byte-identical")
		faults     = fs.String("faults", "", "inject deterministic task faults for chaos testing, e.g. panic=0.05,error=0.05,latency=0.01,seed=1")
		retries    = fs.Int("retries", 0, "extra attempts per failing engine task")
		budget     = fs.Int("failure-budget", 0, "failed cells absorbed per batch as explicit skips (-1 = unlimited, 0 = fail fast; defaults to -1 when -faults is set)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "prefetchd: unexpected arguments %q (the daemon takes only flags)\n", fs.Args())
		return 2
	}
	budgetSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "failure-budget" {
			budgetSet = true
		}
	})
	var benchList []string
	if *benches != "" {
		benchList = strings.Split(*benches, ",")
	}
	if !experiments.ValidTier(*tier) {
		fmt.Fprintf(stderr, "prefetchd: unknown tier %q (want %s)\n",
			*tier, strings.Join(experiments.Tiers(), " or "))
		return 2
	}

	var fault sched.FaultHook
	var inj *faultinject.Injector
	if *faults != "" {
		spec, err := faultinject.Parse(*faults)
		if err != nil {
			fmt.Fprintf(stderr, "prefetchd: %v\n", err)
			return 2
		}
		inj = faultinject.New(spec)
		fault = inj
		if !budgetSet {
			*budget = -1
		}
	}

	logger, err := buildLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "prefetchd: %v\n", err)
		return 2
	}

	// The Obs bundle always exists so /metrics exports live scheduler and
	// cache tallies; the stats registry and tracer inside it stay opt-in,
	// matching the CLI (a checkpoint always carries the stats registry so
	// replayed tasks restore their snapshots).
	o := &obs.Obs{}
	if *statsJSON != "" || *checkpoint != "" {
		o.Stats = obs.NewStats()
	}
	if *traceOut != "" {
		o.Trace = obs.NewTracer()
	}

	base := experiments.Options{
		Scale: *scale, Mixes: *mixes, Seed: *seed, SamplerPeriod: *period,
		Workers: *workers, Benches: benchList, Tier: *tier,
		Retries: *retries, FailureBudget: *budget, Fault: fault,
	}.Normalized()

	// The checkpoint fingerprint matches the CLI's scheme, so a sweep
	// started with `prefetchlab -checkpoint` can be resumed behind the
	// server (and vice versa) under the same configuration.
	var cp *ckpt.File
	if *checkpoint != "" {
		var err error
		cp, err = ckpt.Open(*checkpoint, base.Fingerprint())
		if err != nil {
			fmt.Fprintf(stderr, "prefetchd: checkpoint: %v\n", err)
			return 1
		}
		cp.Each("stat", func(key string, index int, data []byte) {
			if snap, err := obs.DecodeSnapshot(data); err == nil {
				o.Stats.Record(key, snap)
			}
		})
		o.Stats.Persist = func(key string, data []byte) {
			cp.Append("stat", key, 0, data)
		}
	}

	// Tenant registry: API keys, per-tenant rate limits and fair-share
	// weights. Without -tenants every request is the unlimited anonymous
	// tenant — exactly the single-tenant behavior of earlier releases.
	var tenants *tenant.Registry
	if *tenantsFile != "" {
		var err error
		tenants, err = tenant.Load(*tenantsFile)
		if err != nil {
			fmt.Fprintf(stderr, "prefetchd: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "prefetchd: loaded %d keyed tenant(s) from %s\n", tenants.Keyed(), *tenantsFile)
	}

	// Result cache: -result-cache names the disk tier; -result-cache-entries
	// sizes the memory tier (defaulted when a directory is given).
	var cache *resultcache.Cache
	if *cacheDir != "" && *cacheEntries == 0 {
		*cacheEntries = 256
	}
	if *cacheEntries > 0 {
		var err error
		cache, err = resultcache.New(resultcache.Config{
			MaxEntries:   *cacheEntries,
			Dir:          *cacheDir,
			MaxDiskBytes: *cacheDiskBytes,
			Obs:          o,
		})
		if err != nil {
			fmt.Fprintf(stderr, "prefetchd: result cache: %v\n", err)
			return 1
		}
	}

	srv := serve.New(serve.Config{
		Base:              base,
		Obs:               o,
		Checkpoint:        cp,
		Tenants:           tenants,
		Cache:             cache,
		MaxInflight:       *maxInflight,
		QueueDepth:        *queueDepth,
		RequestTimeout:    *requestTimeout,
		MaxRequestTimeout: *maxReqTimeout,
		BreakerThreshold:  *breakerThreshold,
		BreakerCooldown:   *breakerCooldown,
		RetryAfter:        *retryAfter,
		Log:               stderr,
		Logger:            logger,
		SlowRequest:       *slowRequest,
	})

	// Request contexts derive from baseCtx: when a drain times out, the
	// cancel propagates through sched and in-flight engine work stops at
	// the next task boundary instead of running unattended.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	hs := &http.Server{
		Handler:     srv.Handler(),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "prefetchd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "prefetchd: listening on %s\n", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	runDone := make(chan struct{})
	defer close(runDone)

	code := 0
	select {
	case err := <-serveErr:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(stderr, "prefetchd: %v\n", err)
			code = 1
		}
	case sig := <-sigCh:
		fmt.Fprintf(stderr, "prefetchd: %v: draining (in-flight requests finish, new requests shed)\n", sig)
		srv.SetDraining(true)
		// A second signal while draining forces immediate exit with a
		// distinct code, so a wedged request can never hold shutdown
		// hostage.
		go func() {
			select {
			case <-sigCh:
				fmt.Fprintln(stderr, "prefetchd: second signal while draining: forcing exit")
				forceExit(ForcedExitCode)
			case <-runDone:
			}
		}()
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := hs.Shutdown(dctx)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "prefetchd: drain timeout after %s: aborting in-flight requests\n", *drainTimeout)
			cancelBase()
			hs.Close()
			code = 1
		}
	}
	cancelBase()

	// Flush observability artifacts atomically and close the checkpoint —
	// the restart path depends on these being complete or absent, never
	// truncated.
	srv.PublishMetrics()
	o.PublishFaults()
	if o.Stats != nil && *statsJSON != "" {
		if err := atomicio.WriteFile(*statsJSON, o.Stats.WriteJSON); err != nil {
			fmt.Fprintf(stderr, "prefetchd: %v\n", err)
			code = 1
		}
	}
	if o.Trace != nil && *traceOut != "" {
		if err := atomicio.WriteFile(*traceOut, o.Trace.WriteJSON); err != nil {
			fmt.Fprintf(stderr, "prefetchd: %v\n", err)
			code = 1
		}
	}
	if inj != nil {
		fmt.Fprintf(stderr, "# faults: %s\n", inj)
	}
	if sum := o.FaultSummary(); sum != "" {
		fmt.Fprintf(stderr, "# engine: %s\n", sum)
	}
	if cp != nil {
		fmt.Fprintf(stderr, "# checkpoint: replayed %d record(s), appended %d to %s\n",
			cp.Replayed(), cp.Appended(), *checkpoint)
		if err := cp.Close(); err != nil {
			fmt.Fprintf(stderr, "prefetchd: checkpoint: %v\n", err)
			code = 1
		}
	}
	if cache.Enabled() {
		cs := cache.Stats()
		fmt.Fprintf(stderr, "# result cache: %d hit(s), %d miss(es), %d corrupt, %d quarantined\n",
			cs.Hits, cs.Misses, cs.Corrupt, cs.Quarantined)
	}
	snap := srv.MetricsSnapshot()
	fmt.Fprintf(stderr, "prefetchd: served %d request(s): %d ok, %d shed, %d timeout, %d error; breaker %s\n",
		snap.Requests, snap.OK, snap.Shed429+snap.Shed503, snap.Timeout504, snap.Errors500, snap.Breaker.State)
	if code == 0 {
		fmt.Fprintln(stderr, "prefetchd: drained cleanly")
	}
	return code
}
