package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"prefetchlab/internal/analytic"
	"prefetchlab/internal/core"
	"prefetchlab/internal/experiments"
	"prefetchlab/internal/machine"
	"prefetchlab/internal/mix"
	"prefetchlab/internal/pipeline"
	"prefetchlab/internal/resultcache"
	"prefetchlab/internal/statstack"
	"prefetchlab/internal/tenant"
	"prefetchlab/internal/workloads"
)

// routes registers every endpoint on the server mux. Engine-backed
// endpoints go through serveHeavy (admission control, deadline, breaker);
// introspection endpoints answer directly so they stay responsive under
// overload and during drain.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleProm)
	s.mux.HandleFunc("GET /api/v1/figures", s.handleFigureList)
	s.mux.HandleFunc("GET /api/v1/figures/{name}", s.serveHeavy(EndpointFigure, s.prepareFigure))
	s.mux.HandleFunc("GET /api/v1/mrc", s.serveHeavy(EndpointMRC, s.prepareMRC))
	s.mux.HandleFunc("GET /api/v1/mix", s.serveHeavy(EndpointMix, s.prepareMix))
	s.mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
}

// benchSpec validates one benchmark name against the Table I set.
func benchSpec(name string) (workloads.Spec, error) {
	return workloads.ByName(strings.TrimSpace(name))
}

// healthBody is the liveness/readiness envelope; the breaker state is
// typed into it so operators see open circuits without scraping metrics,
// and the tenant + result-cache state rides along for the same reason.
type healthBody struct {
	Status        string             `json:"status"`
	Draining      bool               `json:"draining"`
	UptimeSeconds float64            `json:"uptime_seconds"`
	Inflight      int                `json:"inflight"`
	Queued        int                `json:"queued"`
	Breaker       BreakerSnapshot    `json:"breaker"`
	TenantsKeyed  int                `json:"tenants_keyed"`
	Tenants       []tenant.Snapshot  `json:"tenants"`
	ResultCache   *resultcache.Stats `json:"result_cache,omitempty"`
	Fingerprint   string             `json:"fingerprint"`
}

func (s *Server) health() healthBody {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	h := healthBody{
		Status:        status,
		Draining:      s.Draining(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Inflight:      s.heavy.Inflight(),
		Queued:        s.heavy.Queued(),
		Breaker:       s.breaker.Snapshot(),
		TenantsKeyed:  s.tenants.Keyed(),
		Tenants:       s.heavy.Snapshots(),
		Fingerprint:   s.fingerprint,
	}
	if s.cache.Enabled() {
		cs := s.cache.Stats()
		h.ResultCache = &cs
	}
	return h
}

// handleHealthz is the liveness probe: 200 as long as the process serves,
// with the breaker/drain state in the body.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.note(r, EndpointHealthz)
	s.noteWrite(writeJSON(w, s.health()))
}

// handleReadyz is the readiness probe: 503 while draining (or while the
// breaker is open, when no traffic should be routed here), 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.note(r, EndpointReadyz)
	h := s.health()
	if h.Draining || h.Breaker.State == BreakerOpen.String() {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		s.noteWrite(writeJSONBody(w, h))
		return
	}
	s.noteWrite(writeJSON(w, h))
}

// writeJSONBody writes an already-headered JSON body, returning the write
// error for the caller's write_errors tally.
func writeJSONBody(w io.Writer, v any) error {
	return writeIndentedJSON(w, v)
}

// figureListBody advertises the runnable experiments and the server's
// default configuration.
type figureListBody struct {
	Experiments []string `json:"experiments"`
	Tiers       []string `json:"tiers"`
	Tier        string   `json:"tier"`
	Scale       float64  `json:"scale"`
	Mixes       int      `json:"mixes"`
	Seed        int64    `json:"seed"`
	Period      int64    `json:"period"`
	Benches     []string `json:"benches,omitempty"`
	Checkpoint  bool     `json:"checkpoint"`
}

func (s *Server) handleFigureList(w http.ResponseWriter, r *http.Request) {
	s.note(r, EndpointFigures)
	s.noteWrite(writeJSON(w, figureListBody{
		Experiments: experiments.Names(),
		Tiers:       experiments.Tiers(),
		Tier:        s.base.Tier,
		Scale:       s.base.Scale,
		Mixes:       s.base.Mixes,
		Seed:        s.base.Seed,
		Period:      s.base.SamplerPeriod,
		Benches:     s.base.Benches,
		Checkpoint:  s.cfg.Checkpoint != nil,
	}))
}

// prepareFigure validates GET /api/v1/figures/{name} and returns a run
// that renders the figure through the same driver the CLI uses — the
// response body is byte-identical to `prefetchlab <name>` under the same
// options.
func (s *Server) prepareFigure(r *http.Request) (prepared, error) {
	name := r.PathValue("name")
	if !experiments.Known(name) {
		return prepared{}, notFoundf("unknown experiment %q (see /api/v1/figures)", name)
	}
	o, _, err := s.options(r.URL.Query())
	if err != nil {
		return prepared{}, err
	}
	o = perRequest(r, o)
	return prepared{
		contentType: "text/plain; charset=utf-8",
		cacheKey:    "figure|" + name + "|" + o.Fingerprint(),
		run: func(ctx context.Context, out io.Writer) error {
			o := o
			o.Out = out
			return experiments.Run(ctx, s.session(o), name)
		},
	}, nil
}

// mrcBody is the JSON shape of GET /api/v1/mrc: a StatStack miss-ratio
// curve of one benchmark at the requested cache sizes.
type mrcBody struct {
	Bench   string     `json:"bench"`
	Input   int        `json:"input"`
	Scale   float64    `json:"scale"`
	Period  int64      `json:"period"`
	Seed    int64      `json:"seed"`
	Samples int64      `json:"samples"`
	Points  []mrcPoint `json:"points"`
	// Tier marks non-default engine tiers ("static"); absent for the
	// default sampled pipeline, so default responses are byte-identical to
	// pre-tier servers.
	Tier string `json:"tier,omitempty"`
	// Analytic carries the MRC-only solo steady-state prediction per
	// machine when the request selects ?tier=analytic; absent otherwise,
	// so default responses are byte-identical to pre-tier servers.
	Analytic []analyticSoloBody `json:"analytic,omitempty"`
	// Static carries the per-load static classification when the request
	// selects ?tier=static (the curve itself lands in Points); absent
	// otherwise.
	Static []staticLoadBody `json:"static,omitempty"`
}

// staticLoadBody is one demand load's zero-execution classification.
type staticLoadBody struct {
	PC        uint32 `json:"pc"`
	Class     string `json:"class"`
	Stride    int64  `json:"stride,omitempty"`
	Footprint int64  `json:"footprint,omitempty"`
	Execs     uint64 `json:"execs"`
	Decision  string `json:"decision"`
	Distance  int64  `json:"distance,omitempty"`
}

type mrcPoint struct {
	SizeBytes int64   `json:"size_bytes"`
	MissRatio float64 `json:"miss_ratio"`
}

// analyticSoloBody is one machine's analytic solo prediction.
type analyticSoloBody struct {
	Machine       string  `json:"machine"`
	CPI           float64 `json:"cpi"`
	LLCMissRatio  float64 `json:"llc_miss_ratio"`
	OccupancyMB   float64 `json:"occupancy_mb"`
	BandwidthGBps float64 `json:"bandwidth_gbps"`
	PrefetchGBps  float64 `json:"prefetch_gbps"`
}

// prepareMRC validates GET /api/v1/mrc (?bench= required, optional
// ?sizes=csv-bytes and ?input=) and returns a run that profiles the
// benchmark and evaluates its StatStack model.
func (s *Server) prepareMRC(r *http.Request) (prepared, error) {
	q := r.URL.Query()
	bench := q.Get("bench")
	if bench == "" {
		return prepared{}, badRequestf("missing required parameter bench (one of %s)",
			strings.Join(workloads.Names(), ", "))
	}
	spec, err := benchSpec(bench)
	if err != nil {
		return prepared{}, badRequestf("bad bench: %v", err)
	}
	sizes := statstack.StandardSizes()
	if v := q.Get("sizes"); v != "" {
		sizes = sizes[:0]
		for _, f := range strings.Split(v, ",") {
			n, perr := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if perr != nil || n < 64 || n > 1<<34 {
				return prepared{}, badRequestf("bad sizes entry %q (want bytes in [64, 2^34])", f)
			}
			sizes = append(sizes, n)
		}
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	}
	inputID := 0
	if v := q.Get("input"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 0 || n > 16 {
			return prepared{}, badRequestf("bad input %q (want 0..16)", v)
		}
		inputID = n
	}
	o, _, err := s.options(q)
	if err != nil {
		return prepared{}, err
	}
	o = perRequest(r, o)
	o.Save = nil // profiles are cached, not checkpointed
	sizeParts := make([]string, len(sizes))
	for i, n := range sizes {
		sizeParts[i] = strconv.FormatInt(n, 10)
	}
	cacheKey := fmt.Sprintf("mrc|%s|input=%d|sizes=%s|%s",
		spec.Name, inputID, strings.Join(sizeParts, ","), o.Fingerprint())
	if o.Tier == "static" {
		// The static tier never executes or samples the program: the curve
		// and the per-load classification come from the compiled text alone,
		// so the run costs microseconds and the body is byte-identical at
		// any worker count (Samples stays 0 — nothing was sampled).
		return prepared{
			contentType: "application/json",
			cacheKey:    cacheKey,
			run: func(ctx context.Context, out io.Writer) error {
				sp, err := experiments.StaticOnly(spec, workloads.Input{ID: inputID, Scale: o.Scale})
				if err != nil {
					return err
				}
				body := mrcBody{
					Bench:  spec.Name,
					Input:  inputID,
					Scale:  o.Scale,
					Period: o.SamplerPeriod,
					Seed:   o.Seed,
					Tier:   o.Tier,
				}
				for i, ratio := range sp.MRC(sizes) {
					body.Points = append(body.Points, mrcPoint{SizeBytes: sizes[i], MissRatio: ratio})
				}
				for _, ld := range sp.Loads {
					lb := staticLoadBody{
						PC:        uint32(ld.PC),
						Class:     string(ld.Class),
						Footprint: ld.Footprint,
						Execs:     ld.Execs,
						Decision:  string(ld.Decision),
					}
					if ld.Decision == core.DecisionInsertNormal || ld.Decision == core.DecisionInsertNTA {
						lb.Stride, lb.Distance = ld.Stride, ld.Distance
					}
					body.Static = append(body.Static, lb)
				}
				return writeIndentedJSON(out, body)
			},
		}, nil
	}
	return prepared{
		contentType: "application/json",
		cacheKey:    cacheKey,
		run: func(ctx context.Context, out io.Writer) error {
			sess := s.session(o)
			bp, err := sess.Prof.Get(ctx, spec, workloads.Input{ID: inputID, Scale: o.Scale})
			if err != nil {
				return err
			}
			body := mrcBody{
				Bench:   spec.Name,
				Input:   inputID,
				Scale:   o.Scale,
				Period:  o.SamplerPeriod,
				Seed:    o.Seed,
				Samples: bp.Model.Samples(),
			}
			for i, ratio := range bp.Model.MRC(sizes) {
				body.Points = append(body.Points, mrcPoint{SizeBytes: sizes[i], MissRatio: ratio})
			}
			if o.Tier == "analytic" {
				core := bp.AnalyticCore()
				for _, mach := range []machine.Machine{machine.AMDPhenomII(), machine.IntelSandyBridge()} {
					pred := analytic.Predict(mach, []analytic.Core{core})
					if len(pred.Cores) == 0 {
						continue
					}
					c := pred.Cores[0]
					body.Analytic = append(body.Analytic, analyticSoloBody{
						Machine:       mach.Name,
						CPI:           c.CPI,
						LLCMissRatio:  c.MRLLC,
						OccupancyMB:   float64(c.OccupancyBytes) / (1 << 20),
						BandwidthGBps: c.BandwidthGBps,
						PrefetchGBps:  c.PrefetchGBps,
					})
				}
			}
			return writeIndentedJSON(out, body)
		},
	}, nil
}

// policyNames maps URL-safe policy keys to pipeline policies ('+' would
// decode as a space in a query string, hence swnt_hw).
var policyNames = map[string]pipeline.Policy{
	"baseline": pipeline.Baseline,
	"hw":       pipeline.HWPref,
	"sw":       pipeline.SWPref,
	"swnt":     pipeline.SWPrefNT,
	"stride":   pipeline.StrideCentric,
	"swnt_hw":  pipeline.SWNTPlusHW,
	"swl2":     pipeline.SWPrefL2,
}

// policyKeys returns the accepted ?policies= keys, sorted.
func policyKeys() []string {
	keys := make([]string, 0, len(policyNames))
	for k := range policyNames {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parsePolicies resolves a comma-separated policy list.
func parsePolicies(v string) ([]pipeline.Policy, error) {
	if v == "" {
		v = "hw,swnt"
	}
	var out []pipeline.Policy
	for _, f := range strings.Split(v, ",") {
		key := strings.TrimSpace(f)
		p, ok := policyNames[key]
		if !ok {
			return nil, fmt.Errorf("unknown policy %q (want one of %s)", key, strings.Join(policyKeys(), ", "))
		}
		out = append(out, p)
	}
	return out, nil
}

// parseMachine resolves ?machine= to one of the paper's two platforms.
func parseMachine(v string) (machine.Machine, error) {
	switch v {
	case "", "amd":
		return machine.AMDPhenomII(), nil
	case "intel":
		return machine.IntelSandyBridge(), nil
	default:
		return machine.Machine{}, fmt.Errorf("unknown machine %q (want amd or intel)", v)
	}
}

// mixBody is the JSON shape of GET /api/v1/mix: one co-run mix evaluated
// against its no-prefetching baseline under the requested policies.
type mixBody struct {
	Apps     []string        `json:"apps"`
	Machine  string          `json:"machine"`
	MixID    int             `json:"mix_id"`
	Policies []mixPolicyBody `json:"policies"`
	Skipped  []string        `json:"skipped,omitempty"`
}

type mixPolicyBody struct {
	Policy       string  `json:"policy"`
	WS           float64 `json:"weighted_speedup"`
	FS           float64 `json:"fair_speedup"`
	QoS          float64 `json:"qos"`
	TrafficDelta float64 `json:"traffic_delta"`
}

// mixAnalyticBody is the JSON shape of GET /api/v1/mix?tier=analytic: the
// shared-LLC fixed point predicted from StatStack models alone, without
// running the timing simulator.
type mixAnalyticBody struct {
	Apps      []string          `json:"apps"`
	Machine   string            `json:"machine"`
	MixID     int               `json:"mix_id"`
	Tier      string            `json:"tier"`
	Cores     []mixAnalyticCore `json:"cores"`
	TotalGBps float64           `json:"total_bandwidth_gbps"`
}

type mixAnalyticCore struct {
	Bench         string  `json:"bench"`
	Slowdown      float64 `json:"slowdown"`
	CPI           float64 `json:"cpi"`
	LLCMissRatio  float64 `json:"llc_miss_ratio"`
	OccupancyMB   float64 `json:"occupancy_mb"`
	BandwidthGBps float64 `json:"bandwidth_gbps"`
}

// prepareMix validates GET /api/v1/mix (?apps= required csv of 1..8
// benchmarks, optional ?machine=, ?policies=, ?mixid=) and returns a run
// that simulates the mix baseline + policies on the scheduler pool.
func (s *Server) prepareMix(r *http.Request) (prepared, error) {
	q := r.URL.Query()
	apps := q.Get("apps")
	if apps == "" {
		return prepared{}, badRequestf("missing required parameter apps (csv of 1..8 of %s)",
			strings.Join(workloads.Names(), ", "))
	}
	names := strings.Split(apps, ",")
	if len(names) > 8 {
		return prepared{}, badRequestf("too many apps (%d, max 8)", len(names))
	}
	for i, n := range names {
		spec, err := benchSpec(n)
		if err != nil {
			return prepared{}, badRequestf("bad apps: %v", err)
		}
		names[i] = spec.Name
	}
	mach, err := parseMachine(q.Get("machine"))
	if err != nil {
		return prepared{}, badRequestf("%v", err)
	}
	policies, err := parsePolicies(q.Get("policies"))
	if err != nil {
		return prepared{}, badRequestf("%v", err)
	}
	mixID := 0
	if v := q.Get("mixid"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 0 || n > 100000 {
			return prepared{}, badRequestf("bad mixid %q (want 0..100000)", v)
		}
		mixID = n
	}
	o, _, err := s.options(q)
	if err != nil {
		return prepared{}, err
	}
	o = perRequest(r, o)
	// Ad-hoc mixes are not covered by the configuration fingerprint, so
	// they never touch the checkpoint.
	o.Save = nil
	polParts := make([]string, len(policies))
	for i, p := range policies {
		polParts[i] = p.String()
	}
	cacheKey := fmt.Sprintf("mix|%s|machine=%s|mixid=%d|policies=%s|%s",
		strings.Join(names, ","), mach.Name, mixID, strings.Join(polParts, ","), o.Fingerprint())
	if o.Tier == "static" {
		// The static tier models solo miss-ratio curves only: contention
		// needs either the analytic queue model or the timing simulator.
		return prepared{}, badRequestf("tier=static models solo MRCs only (see /api/v1/mrc?tier=static); use tier=analytic or tier=sim for mixes")
	}
	if o.Tier == "analytic" {
		// The analytic tier models the contended baseline only; prefetch
		// policies need the timing simulator.
		if v := q.Get("policies"); v != "" && v != "baseline" {
			return prepared{}, badRequestf("tier=analytic models the baseline mix only (got policies=%q); drop policies or use tier=sim", v)
		}
		return prepared{
			contentType: "application/json",
			cacheKey:    cacheKey,
			run: func(ctx context.Context, out io.Writer) error {
				sess := s.session(o)
				cores := make([]analytic.Core, len(names))
				for i, name := range names {
					core, err := sess.AnalyticCore(ctx, name)
					if err != nil {
						return err
					}
					cores[i] = core
				}
				pred := analytic.Predict(mach, cores)
				body := mixAnalyticBody{
					Apps: names, Machine: mach.Name, MixID: mixID,
					Tier: o.Tier, TotalGBps: pred.TotalBandwidthGBps,
				}
				for _, c := range pred.Cores {
					body.Cores = append(body.Cores, mixAnalyticCore{
						Bench:         c.Name,
						Slowdown:      c.Slowdown,
						CPI:           c.CPI,
						LLCMissRatio:  c.MRLLC,
						OccupancyMB:   float64(c.OccupancyBytes) / (1 << 20),
						BandwidthGBps: c.BandwidthGBps,
					})
				}
				return writeIndentedJSON(out, body)
			},
		}, nil
	}
	return prepared{
		contentType: "application/json",
		cacheKey:    cacheKey,
		run: func(ctx context.Context, out io.Writer) error {
			sess := s.session(o)
			runner := &mix.Runner{
				Prof:         sess.Prof,
				Mach:         mach,
				ProfileInput: sess.Input(),
				Pool:         poolFor(o),
				Obs:          o.Obs,
				Scope:        "serve/mix/" + mach.Name,
			}
			cmp, err := runner.RunOne(ctx, mixID, names, policies)
			if err != nil {
				return err
			}
			body := mixBody{Apps: names, Machine: mach.Name, MixID: mixID}
			for _, p := range policies {
				if _, ok := cmp.ByPolicy[p]; !ok {
					continue
				}
				body.Policies = append(body.Policies, mixPolicyBody{
					Policy:       p.String(),
					WS:           cmp.WS(p),
					FS:           cmp.FS(p),
					QoS:          cmp.QoS(p),
					TrafficDelta: cmp.TrafficDelta(p),
				})
			}
			for _, sk := range cmp.Skipped {
				body.Skipped = append(body.Skipped, fmt.Sprintf("%s: %s", sk.Policy, sk.Reason))
			}
			return writeIndentedJSON(out, body)
		},
	}, nil
}

// handleStats dumps the observability stats registry (machine snapshots,
// skip records) with the live serving metrics embedded under "server".
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.note(r, EndpointStats)
	if s.cfg.Obs == nil || s.cfg.Obs.Stats == nil {
		s.noteWrite(writeError(w, http.StatusNotFound, "bad_request", "stats registry not enabled", 0))
		return
	}
	s.PublishMetrics()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	s.noteWrite(s.cfg.Obs.Stats.WriteJSON(w))
}

// handleMetrics serves the live serving-layer counters as JSON. The body
// is read back out of the same Prometheus registry /metrics renders, so
// the two exports can never disagree.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.note(r, EndpointMetrics)
	s.noteWrite(writeJSON(w, s.MetricsSnapshot()))
}

// handleProm serves the Prometheus text exposition: every serving family,
// the scheduler/cache/fault mirrors, the stats-registry aggregate and Go
// runtime stats, refreshed by the scrape hooks just before rendering.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	s.note(r, EndpointProm)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.noteWrite(s.reg.WriteText(w))
}
