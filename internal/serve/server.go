// Package serve is prefetchlab's long-running service front end: an HTTP
// API that runs experiments, per-figure sweeps, MRC/StatStack queries and
// mix simulations on top of the existing scheduler pool, with production
// robustness baked in.
//
// The request path is hardened in layers:
//
//   - Admission control: heavy (engine-backed) endpoints pass a bounded
//     concurrency limit plus a bounded wait queue; anything beyond is shed
//     immediately with 429 + Retry-After, and a draining server sheds with
//     503, so latency stays bounded instead of the backlog growing.
//   - Per-request deadlines: the request context (default or ?timeout=)
//     propagates through sched; on expiry the engine drains in-flight
//     tasks (sched.CanceledError semantics) and the client gets 504.
//   - Circuit breaking: consecutive engine failures or timeouts open a
//     breaker around the engine; requests fail fast with 503 until a
//     half-open probe succeeds. The typed state is in /healthz, /readyz
//     and metrics.
//   - Panic safety: a recovery middleware plus a per-request recover turn
//     any handler panic into a 500 and a counter, never a crash.
//   - Observability: every request is a trace span; shed counts, breaker
//     transitions and queue depth are exported in metrics and embedded in
//     -stats-json under "server".
//
// Figure output is rendered through the same drivers as the CLI, so a
// served figure is byte-identical to `prefetchlab <figure>` under the same
// options — including runs resumed from a checkpoint.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"prefetchlab/internal/ckpt"
	"prefetchlab/internal/experiments"
	"prefetchlab/internal/obs"
	"prefetchlab/internal/obs/prom"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/resultcache"
	"prefetchlab/internal/sampler"
	"prefetchlab/internal/sched"
	"prefetchlab/internal/tenant"
)

// Config assembles a Server.
type Config struct {
	// Base holds the default experiment options (scale, seed, mixes,
	// period, benches, workers, retries, failure budget, fault hook, obs).
	// Base.Out is ignored: every request renders into its own buffer.
	Base experiments.Options
	// Obs receives request spans and serving metrics; may be nil.
	Obs *obs.Obs
	// Checkpoint, when non-nil, persists completed engine tasks of
	// default-configuration requests so a restarted server resumes long
	// sweeps. Requests that override result-affecting options bypass it.
	Checkpoint *ckpt.File
	// Tenants is the multi-tenant registry (API keys, rate limits, quotas,
	// fair-share weights). Nil selects the single-tenant default: one
	// unlimited anonymous tenant, which reproduces the pre-tenant
	// admission behavior exactly.
	Tenants *tenant.Registry
	// Cache, when non-nil, serves repeated heavy requests from the
	// content-addressed result cache instead of recomputing them. It is
	// ignored (treated as nil) when Base.Fault is set, so chaos runs always
	// exercise the engine.
	Cache *resultcache.Cache
	// MaxInflight caps concurrently executing heavy requests. <= 0 sizes
	// it off the engine pool (Base.Workers, or 1 if unset).
	MaxInflight int
	// QueueDepth bounds how many admitted requests may wait for a slot
	// per tenant; beyond it the tenant's requests shed with 429. < 0
	// disables queueing entirely; 0 selects 2*MaxInflight.
	QueueDepth int
	// RequestTimeout is the default per-request deadline (0 = none).
	// Clients may lower/raise it per request with ?timeout=, capped at
	// MaxRequestTimeout.
	RequestTimeout time.Duration
	// MaxRequestTimeout caps ?timeout=; <= 0 selects 10 minutes.
	MaxRequestTimeout time.Duration
	// BreakerThreshold is the consecutive engine failures/timeouts that
	// open the circuit breaker. 0 selects 5; < 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open interval before a half-open probe;
	// <= 0 selects 10 seconds.
	BreakerCooldown time.Duration
	// RetryAfter is the hint attached to shed responses; <= 0 selects 1s.
	RetryAfter time.Duration
	// Log, when non-nil, receives the structured logs as text (one line per
	// request plus shed/error/panic events). Ignored when Logger is set.
	Log io.Writer
	// Logger, when non-nil, receives the structured logs (access log,
	// shed/breaker/panic/engine events) and takes precedence over Log.
	Logger *slog.Logger
	// SlowRequest promotes the access-log line of any request at or above
	// this duration to warning level; 0 disables the promotion.
	SlowRequest time.Duration
}

// Server is the hardened HTTP front end. Create with New, expose via
// Handler, and flip SetDraining(true) before http.Server.Shutdown so
// readiness probes fail fast while in-flight requests drain.
type Server struct {
	cfg         Config
	base        experiments.Options
	mux         *http.ServeMux
	tenants     *tenant.Registry
	heavy       *tenant.FairShare
	cache       *resultcache.Cache
	breaker     *Breaker
	reg         *prom.Registry
	metrics     *Metrics
	logger      *slog.Logger
	prof        *pipeline.Profiler
	fingerprint string
	idBase      string
	ids         atomic.Int64
	start       time.Time
	drain       atomic.Bool
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	base := cfg.Base.Normalized()
	base.Obs = cfg.Obs
	if cfg.MaxInflight <= 0 {
		if base.Workers > 0 {
			cfg.MaxInflight = base.Workers
		} else {
			cfg.MaxInflight = 1
		}
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 2 * cfg.MaxInflight
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.MaxRequestTimeout <= 0 {
		cfg.MaxRequestTimeout = 10 * time.Minute
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	reg := prom.NewRegistry()
	logger := cfg.Logger
	if logger == nil {
		if cfg.Log != nil {
			logger = slog.New(slog.NewTextHandler(cfg.Log, nil))
		} else {
			logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		}
	}
	tenants := cfg.Tenants
	if tenants == nil {
		tenants = tenant.Default()
	}
	cache := cfg.Cache
	if base.Fault != nil {
		// Fault-injected runs must hit the engine every time: a cached body
		// would mask the very failure modes chaos tests exist to exercise.
		cache = nil
	}
	s := &Server{
		cfg:         cfg,
		base:        base,
		mux:         http.NewServeMux(),
		tenants:     tenants,
		heavy:       tenant.NewFairShare(tenants, cfg.MaxInflight, cfg.QueueDepth, cfg.RetryAfter),
		cache:       cache,
		breaker:     NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		reg:         reg,
		metrics:     newMetrics(reg),
		logger:      logger,
		prof:        pipeline.NewProfiler(sampler.Config{Period: base.SamplerPeriod, Seed: base.Seed}),
		fingerprint: base.Fingerprint(),
		idBase:      fmt.Sprintf("pfd-%08x", uint32(time.Now().UnixNano())),
		start:       time.Now(),
	}
	s.prof.SetObs(cfg.Obs)
	s.wireScrape()
	s.routes()
	return s
}

// Registry exposes the server's Prometheus registry (for tests and for
// embedding extra collectors).
func (s *Server) Registry() *prom.Registry { return s.reg }

// nextRequestID assigns a fresh correlation id: a per-process base token
// plus a monotonic sequence number.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.idBase, s.ids.Add(1))
}

// Handler returns the fully wrapped HTTP handler: the instrumentation
// middleware (request-ID assignment, latency histogram, access log) around
// routing, inside a panic recovery layer, so no request — however
// malformed — can crash the process.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(RequestIDHeader)
		if !validRequestID(id) {
			id = s.nextRequestID()
		}
		ri := &reqInfo{id: id, endpoint: EndpointUnmatched}
		// Tenant identification happens here, before any routing or
		// shedding, so every response (including 401/429/503 short
		// circuits) is already correlated: the access-log line carries the
		// tenant label and the response carries X-Request-ID.
		if tn, err := s.tenants.Identify(r); err == nil {
			ri.tenant = tn.Name
			ri.tenantRef = tn
		} else {
			ri.tenant = "unknown"
		}
		w.Header().Set(RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		r = r.WithContext(withReqInfo(r.Context(), ri))
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panics.Add(1)
				s.metrics.errors500.Add(1)
				s.logger.Error("panic serving request",
					"request_id", id, "method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				s.noteWrite(writeError(sw, http.StatusInternalServerError, "panic", "internal error", 0))
			}
			s.finishRequest(sw, r, ri, time.Since(start))
		}()
		s.mux.ServeHTTP(sw, r)
	})
}

// finishRequest closes out one request: the per-endpoint latency/size
// observation plus the structured access-log line, promoted to warning
// when the request ran past the slow-request threshold.
func (s *Server) finishRequest(sw *statusWriter, r *http.Request, ri *reqInfo, d time.Duration) {
	s.metrics.observe(ri.endpoint, d, sw.bytes)
	attrs := []any{
		"request_id", ri.id,
		"method", r.Method,
		"path", r.URL.Path,
		"endpoint", string(ri.endpoint),
		"tenant", ri.tenant,
		"status", sw.statusCode(),
		"bytes", sw.bytes,
		"duration_ms", float64(d) / float64(time.Millisecond),
	}
	if ri.tier != "" {
		attrs = append(attrs, "tier", ri.tier)
	}
	if ri.cache != "" {
		attrs = append(attrs, "cache", ri.cache)
	}
	if ri.heavy {
		attrs = append(attrs,
			"queue_wait_ms", ri.queueWait*1e3,
			"engine_ms", ri.engineTime*1e3)
	}
	if s.cfg.SlowRequest > 0 && d >= s.cfg.SlowRequest {
		s.logger.Warn("slow request", attrs...)
		return
	}
	s.logger.Info("request", attrs...)
}

// note records one arrival: the handler's endpoint label lands on the
// request record (for the access log and latency histogram) and on the
// per-endpoint request counter.
func (s *Server) note(r *http.Request, ep Endpoint) *reqInfo {
	ri := reqInfoFrom(r.Context())
	if ri == nil {
		ri = &reqInfo{} // direct handler invocation outside Handler()
	}
	ri.endpoint = ep
	s.metrics.request(ep)
	return ri
}

// SetDraining flips drain mode: /readyz starts failing and heavy endpoints
// shed with 503 while already-admitted requests run to completion.
func (s *Server) SetDraining(on bool) { s.drain.Store(on) }

// Draining reports drain mode.
func (s *Server) Draining() bool { return s.drain.Load() }

// Breaker exposes the engine circuit breaker (for tests and health output).
func (s *Server) Breaker() *Breaker { return s.breaker }

// TenantRegistry exposes the tenant registry the server admits against.
func (s *Server) TenantRegistry() *tenant.Registry { return s.tenants }

// ResultCache exposes the result cache; nil when caching is disabled.
func (s *Server) ResultCache() *resultcache.Cache { return s.cache }

// MetricsSnapshot captures the serving-layer counters.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	return s.metrics.snapshot(s.heavy, s.breaker, s.Draining(), s.cache)
}

// PublishMetrics copies the current metrics snapshot into the stats
// registry's "server" section, so -stats-json written at shutdown carries
// shed counts, breaker transitions and queue depth.
func (s *Server) PublishMetrics() {
	if s.cfg.Obs != nil && s.cfg.Obs.Stats != nil {
		s.cfg.Obs.Stats.SetServer(s.MetricsSnapshot())
	}
}

// noteWrite tallies a failed response write. The only realistic cause is a
// peer that stopped reading mid-body, so the failure surfaces as a
// write_errors counter in /metrics instead of failing the request a second
// time (the status line is already on the wire).
func (s *Server) noteWrite(err error) {
	if err != nil {
		s.metrics.writeErrs.Add(1)
	}
}

// httpError is a parse/validation failure mapped straight to a status code
// before any engine work runs (so it never trips the breaker).
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequestf(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFoundf(format string, args ...any) *httpError {
	return &httpError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// panicError marks a handler-body panic recovered by runSafe.
type panicError struct {
	rec   any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("serve: handler panicked: %v", e.rec)
}

// runFn is the engine-facing part of a heavy request: it renders the full
// response body into out, or fails as a unit.
type runFn func(ctx context.Context, out io.Writer) error

// prepared is a parsed heavy request, ready to execute. cacheKey, when
// non-empty, content-addresses the rendering in the result cache: it must
// cover every result-affecting input (the configuration fingerprint plus
// endpoint-specific parameters) and nothing scheduling-only, so a cache
// hit is byte-identical to the recompute at any worker count.
type prepared struct {
	run         runFn
	contentType string
	cacheKey    string
}

// prepareFn validates a request into a prepared run; validation failures
// are *httpError and cost no engine capacity.
type prepareFn func(r *http.Request) (prepared, error)

// runSafe executes one prepared run with panic recovery: a panicking
// handler body becomes a *panicError, never a crashed worker.
func runSafe(ctx context.Context, p prepared, out io.Writer) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &panicError{rec: rec, stack: debug.Stack()}
		}
	}()
	return p.run(ctx, out)
}

// serveHeavy wraps a prepared engine request in the full robustness chain:
// tenant authentication, drain shedding, parse validation, per-tenant rate
// limiting, result-cache lookup, per-request deadline, fair-share
// admission, circuit breaking, panic-safe execution, and typed error
// responses. The body is buffered so clients only ever see complete
// renderings; successful renderings with a cache key are stored for the
// next identical request.
func (s *Server) serveHeavy(ep Endpoint, prepare prepareFn) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ri := s.note(r, ep)
		ri.heavy = true
		tn := ri.tenantRef
		if tn == nil {
			// Identification ran in the middleware; a nil ref means the
			// request carried a key the registry does not know.
			s.metrics.unauthorized.Add(1)
			s.logger.Warn("unauthorized request",
				"request_id", ri.id, "endpoint", string(ep), "tenant", ri.tenant)
			s.noteWrite(writeError(w, http.StatusUnauthorized, "unauthorized", "unknown API key", 0))
			return
		}
		if s.Draining() {
			tn.NoteDrainShed()
			s.metrics.shed503.Add(1)
			w.Header().Set("Connection", "close")
			s.noteWrite(writeError(w, http.StatusServiceUnavailable, "draining", "server is draining", s.cfg.RetryAfter))
			return
		}
		p, err := prepare(r)
		if err != nil {
			var he *httpError
			if errors.As(err, &he) {
				if he.status == http.StatusNotFound {
					s.metrics.notFound.Add(1)
				} else {
					s.metrics.badRequest.Add(1)
				}
				s.noteWrite(writeError(w, he.status, "bad_request", he.msg, 0))
				return
			}
			s.metrics.badRequest.Add(1)
			s.noteWrite(writeError(w, http.StatusBadRequest, "bad_request", err.Error(), 0))
			return
		}
		// The tier label was resolved during validation (perRequest); tally
		// it now so cache hits and sheds still count toward their tier.
		s.metrics.tierRequest(ri.tier)

		// Per-tenant rate limit: charged per request, cache hits included —
		// it bounds request rate, not engine time.
		if err := tn.TakeToken(); err != nil {
			var shed *tenant.ShedError
			if errors.As(err, &shed) {
				s.metrics.shed429.Add(1)
				s.logger.Warn("shed request",
					"request_id", ri.id, "endpoint", string(ep), "tenant", tn.Name,
					"reason", shed.Reason)
				s.noteWrite(writeError(w, shed.Status, "rate_limited", shed.Message, shed.RetryAfter))
				return
			}
			s.metrics.errors500.Add(1)
			s.noteWrite(writeError(w, http.StatusInternalServerError, "engine", err.Error(), 0))
			return
		}

		// Result cache: a hit serves the stored rendering without touching
		// the engine, the admission queue, or the breaker — the bytes were
		// produced by an identical computation.
		cacheable := s.cache.Enabled() && p.cacheKey != ""
		if cacheable {
			if e, ok := s.cache.Get(p.cacheKey); ok {
				ri.cache = "hit"
				s.metrics.ok.Add(1)
				w.Header().Set("X-Cache", "hit")
				w.Header().Set("Content-Type", e.ContentType)
				w.WriteHeader(http.StatusOK)
				_, werr := w.Write(e.Body)
				s.noteWrite(werr)
				return
			}
			ri.cache = "miss"
			w.Header().Set("X-Cache", "miss")
		}

		ctx := r.Context()
		timeout, err := s.requestTimeout(r)
		if err != nil {
			s.metrics.badRequest.Add(1)
			s.noteWrite(writeError(w, http.StatusBadRequest, "bad_request", err.Error(), 0))
			return
		}
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}

		// Fair-share admission: the deadline covers queue wait too, so a
		// queued request cannot outlive its own budget.
		qstart := time.Now()
		release, err := s.heavy.Acquire(ctx, tn)
		if err != nil {
			var shed *tenant.ShedError
			switch {
			case errors.As(err, &shed):
				s.metrics.shed429.Add(1)
				s.logger.Warn("shed request",
					"request_id", ri.id, "endpoint", string(ep), "tenant", tn.Name,
					"reason", shed.Reason)
				s.noteWrite(writeError(w, shed.Status, "shed", shed.Message, shed.RetryAfter))
			case errors.Is(err, context.DeadlineExceeded):
				s.metrics.timeout504.Add(1)
				s.noteWrite(writeError(w, http.StatusGatewayTimeout, "timeout", "deadline expired while queued", 0))
			default:
				s.metrics.clientGone.Add(1)
			}
			return
		}
		defer release()
		queueWait := time.Since(qstart)
		ri.queueWait = queueWait.Seconds()
		s.metrics.observeQueueWait(queueWait)

		report, err := s.breaker.Allow()
		if err != nil {
			var open *BreakerOpenError
			retry := s.cfg.RetryAfter
			if errors.As(err, &open) && open.RetryAfter > 0 {
				retry = open.RetryAfter
			}
			s.metrics.shed503.Add(1)
			s.logger.Warn("breaker rejected request",
				"request_id", ri.id, "endpoint", string(ep), "error", err.Error())
			s.noteWrite(writeError(w, http.StatusServiceUnavailable, "breaker_open", err.Error(), retry))
			return
		}

		var buf bytes.Buffer
		estart := time.Now()
		done := obsSpan(s.cfg.Obs.ForRequest(ri.id), ep)
		err = runSafe(ctx, p, &buf)
		done()
		ri.engineTime = time.Since(estart).Seconds()

		var pe *panicError
		switch {
		case err == nil:
			report(Success)
			s.metrics.ok.Add(1)
			if cacheable {
				s.cache.Put(resultcache.Entry{
					Key:         p.cacheKey,
					ContentType: p.contentType,
					Body:        append([]byte(nil), buf.Bytes()...),
				})
			}
			w.Header().Set("Content-Type", p.contentType)
			w.WriteHeader(http.StatusOK)
			_, werr := w.Write(buf.Bytes())
			s.noteWrite(werr)
		case errors.As(err, &pe):
			report(Failure)
			s.metrics.panics.Add(1)
			s.metrics.errors500.Add(1)
			s.logger.Error("panic in handler",
				"request_id", ri.id, "endpoint", string(ep),
				"panic", fmt.Sprint(pe.rec), "stack", string(pe.stack))
			s.noteWrite(writeError(w, http.StatusInternalServerError, "panic", "internal error: handler panicked", 0))
		case experiments.IsCancellation(err):
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				report(Failure) // timeout bursts open the breaker
				s.metrics.timeout504.Add(1)
				s.noteWrite(writeError(w, http.StatusGatewayTimeout, "timeout",
					fmt.Sprintf("request deadline exceeded: %v", err), 0))
				return
			}
			report(Canceled)
			s.metrics.clientGone.Add(1)
		default:
			report(Failure)
			s.metrics.errors500.Add(1)
			s.logger.Error("engine error",
				"request_id", ri.id, "endpoint", string(ep), "error", err.Error())
			s.noteWrite(writeError(w, http.StatusInternalServerError, "engine", err.Error(), 0))
		}
	}
}

// requestTimeout resolves the effective deadline for one request: the
// ?timeout= override (capped) or the configured default.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("timeout")
	if v == "" {
		return s.cfg.RequestTimeout, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad timeout %q (want a positive Go duration, e.g. 30s)", v)
	}
	if d > s.cfg.MaxRequestTimeout {
		d = s.cfg.MaxRequestTimeout
	}
	return d, nil
}

// obsSpan opens a request trace span (no-op without a tracer). o is the
// request-scoped Obs, so the span carries the request id.
func obsSpan(o *obs.Obs, ep Endpoint) func() {
	if o == nil {
		return func() {}
	}
	return o.Span("http", string(ep), nil)
}

// perRequest threads request correlation into the engine options: the
// request id lands on every trace span the run emits (via Obs.ForRequest)
// and the selected tier is noted for the access log.
func perRequest(r *http.Request, o experiments.Options) experiments.Options {
	ri := reqInfoFrom(r.Context())
	if ri == nil {
		return o
	}
	ri.tier = o.Tier
	o.Obs = o.Obs.ForRequest(ri.id)
	return o
}

// errorBody is the JSON error envelope every non-200 response uses.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// writeError emits a typed JSON error with an optional Retry-After hint,
// returning the body-write error for the caller's write_errors tally.
func writeError(w http.ResponseWriter, status int, kind, msg string, retryAfter time.Duration) error {
	if retryAfter > 0 {
		secs := int(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(errorBody{Error: msg, Kind: kind})
}

// writeJSON emits a 200 JSON response, returning the body-write error for
// the caller's write_errors tally.
func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	return writeIndentedJSON(w, v)
}

// writeIndentedJSON renders v as indented JSON to any writer.
func writeIndentedJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// options builds per-request experiment options from query overrides.
// isDefault reports whether every result-affecting option matches the
// server's base configuration — the precondition for checkpoint use.
func (s *Server) options(q map[string][]string) (o experiments.Options, isDefault bool, err error) {
	get := func(key string) string {
		if vs := q[key]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	o = s.base
	o.Verbose = false
	isDefault = true
	if v := get("scale"); v != "" {
		f, perr := strconv.ParseFloat(v, 64)
		if perr != nil || f <= 0 || f > 1000 {
			return o, false, badRequestf("bad scale %q (want a float in (0, 1000])", v)
		}
		if f != o.Scale {
			isDefault = false
		}
		o.Scale = f
	}
	if v := get("seed"); v != "" {
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil {
			return o, false, badRequestf("bad seed %q", v)
		}
		if n != o.Seed {
			isDefault = false
		}
		o.Seed = n
	}
	if v := get("mixes"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 1 || n > 100000 {
			return o, false, badRequestf("bad mixes %q (want 1..100000)", v)
		}
		if n != o.Mixes {
			isDefault = false
		}
		o.Mixes = n
	}
	if v := get("period"); v != "" {
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil || n < 1 {
			return o, false, badRequestf("bad period %q (want a positive integer)", v)
		}
		if n != o.SamplerPeriod {
			isDefault = false
		}
		o.SamplerPeriod = n
	}
	if v := get("benches"); v != "" {
		names := strings.Split(v, ",")
		for _, n := range names {
			if _, werr := benchSpec(n); werr != nil {
				return o, false, badRequestf("bad benches: %v", werr)
			}
		}
		if strings.Join(names, ",") != strings.Join(o.Benches, ",") {
			isDefault = false
		}
		o.Benches = names
	}
	if v := get("tier"); v != "" {
		if !experiments.ValidTier(v) {
			return o, false, badRequestf("bad tier %q (want %s)", v, strings.Join(experiments.Tiers(), " or "))
		}
		if v != o.Tier {
			isDefault = false
		}
		o.Tier = v
	}
	if v := get("workers"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 0 || n > 4096 {
			return o, false, badRequestf("bad workers %q (want 0..4096)", v)
		}
		o.Workers = n // scheduling only: results are worker-count independent
	}
	if !isDefault || s.cfg.Checkpoint == nil {
		o.Save = nil
	} else {
		o.Save = s.cfg.Checkpoint.Tasks()
	}
	return o, isDefault, nil
}

// session builds a per-request experiment session. Sessions whose sampler
// configuration matches the server's base share the server-wide profiler,
// so repeated queries reuse profiles across requests.
func (s *Server) session(o experiments.Options) *experiments.Session {
	sess := experiments.NewSession(o)
	if o.SamplerPeriod == s.base.SamplerPeriod && o.Seed == s.base.Seed {
		sess.Prof = s.prof
	}
	return sess
}

// pool builds a scheduler pool mirroring the session options — used by
// endpoints (mix, mrc) that fan out without a figure driver.
func poolFor(o experiments.Options) sched.Pool {
	return sched.Pool{
		Workers:       o.Workers,
		Obs:           o.Obs.SchedObserver(),
		MaxAttempts:   o.Retries + 1,
		FailureBudget: o.FailureBudget,
		Fault:         o.Fault,
		Save:          o.Save,
	}
}
