package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prefetchlab/internal/experiments"
	"prefetchlab/internal/faultinject"
	"prefetchlab/internal/obs"
)

// testBase returns experiment options small enough for unit tests.
func testBase() experiments.Options {
	return experiments.Options{
		Scale:         0.02,
		SamplerPeriod: 512,
		Benches:       []string{"libquantum"},
		Mixes:         2,
		Seed:          42,
		Workers:       2,
	}
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body of %s: %v", url, err)
	}
	return resp, string(body)
}

func TestHealthAndReadyRoutes(t *testing.T) {
	s, ts := testServer(t, Config{Base: testBase()})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(body, `"status": "ok"`) || !strings.Contains(body, `"state": "closed"`) {
		t.Fatalf("healthz body missing status/breaker state:\n%s", body)
	}
	resp, _ = get(t, ts.URL+"/readyz")
	if resp.StatusCode != 200 {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}

	s.SetDraining(true)
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(body, `"draining": true`) {
		t.Fatalf("draining readyz body:\n%s", body)
	}
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("draining healthz = %d, want 200 (liveness)", resp.StatusCode)
	}
	// Heavy endpoints shed with 503 while draining.
	resp, _ = get(t, ts.URL+"/api/v1/figures/table1")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining figure = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining figure response missing Retry-After")
	}
}

func TestFigureListAndValidation(t *testing.T) {
	_, ts := testServer(t, Config{Base: testBase()})
	resp, body := get(t, ts.URL+"/api/v1/figures")
	if resp.StatusCode != 200 {
		t.Fatalf("figures list = %d, want 200", resp.StatusCode)
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(body, `"`+name+`"`) {
			t.Fatalf("figures list missing %q:\n%s", name, body)
		}
	}
	cases := []struct {
		path string
		want int
	}{
		{"/api/v1/figures/nosuch", 404},
		{"/api/v1/figures/table1?scale=bogus", 400},
		{"/api/v1/figures/table1?benches=nosuchbench", 400},
		{"/api/v1/figures/table1?timeout=banana", 400},
		{"/api/v1/mrc", 400},
		{"/api/v1/mrc?bench=nosuch", 400},
		{"/api/v1/mix", 400},
		{"/api/v1/mix?apps=libquantum&machine=vax", 400},
		{"/api/v1/mix?apps=libquantum&policies=warp", 400},
	}
	for _, c := range cases {
		resp, body := get(t, ts.URL+c.path)
		if resp.StatusCode != c.want {
			t.Errorf("GET %s = %d, want %d (body %s)", c.path, resp.StatusCode, c.want, body)
		}
		if !strings.Contains(body, `"kind"`) {
			t.Errorf("GET %s: error body not typed JSON:\n%s", c.path, body)
		}
	}
	// Parse/validation failures must never count as engine failures.
	s, _ := testServer(t, Config{Base: testBase()})
	_ = s
}

func TestFigureMatchesCLIByteForByte(t *testing.T) {
	base := testBase()
	_, ts := testServer(t, Config{Base: base})

	var want bytes.Buffer
	cli := base
	cli.Out = &want
	if err := experiments.Run(context.Background(), experiments.NewSession(cli), "table1"); err != nil {
		t.Fatalf("direct run: %v", err)
	}

	resp, body := get(t, ts.URL+"/api/v1/figures/table1")
	if resp.StatusCode != 200 {
		t.Fatalf("figure = %d, want 200 (body %s)", resp.StatusCode, body)
	}
	if body != want.String() {
		t.Fatalf("served figure differs from CLI output.\nserved:\n%s\nCLI:\n%s", body, want.String())
	}
	// A second request (cached profiles) must render identically too.
	_, body2 := get(t, ts.URL+"/api/v1/figures/table1")
	if body2 != body {
		t.Fatal("second served rendering differs from first")
	}
}

func TestMRCEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Base: testBase()})
	resp, body := get(t, ts.URL+"/api/v1/mrc?bench=libquantum&sizes=32768,1048576")
	if resp.StatusCode != 200 {
		t.Fatalf("mrc = %d, want 200 (body %s)", resp.StatusCode, body)
	}
	var got mrcBody
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("mrc body not JSON: %v\n%s", err, body)
	}
	if got.Bench != "libquantum" || len(got.Points) != 2 || got.Samples <= 0 {
		t.Fatalf("mrc body = %+v", got)
	}
	if got.Points[0].SizeBytes != 32768 || got.Points[1].SizeBytes != 1048576 {
		t.Fatalf("mrc sizes = %+v", got.Points)
	}
	for _, p := range got.Points {
		if p.MissRatio < 0 || p.MissRatio > 1 {
			t.Fatalf("miss ratio out of range: %+v", p)
		}
	}
	// Larger caches never miss more.
	if got.Points[1].MissRatio > got.Points[0].MissRatio+1e-12 {
		t.Fatalf("MRC not monotone: %+v", got.Points)
	}
}

func TestMixEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Base: testBase()})
	resp, body := get(t, ts.URL+"/api/v1/mix?apps=libquantum,milc&policies=hw,swnt&machine=amd")
	if resp.StatusCode != 200 {
		t.Fatalf("mix = %d, want 200 (body %s)", resp.StatusCode, body)
	}
	var got mixBody
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("mix body not JSON: %v\n%s", err, body)
	}
	if len(got.Policies) != 2 {
		t.Fatalf("mix policies = %+v", got.Policies)
	}
	for _, p := range got.Policies {
		if p.WS <= 0 {
			t.Fatalf("weighted speedup not positive: %+v", p)
		}
	}
}

func TestDeterministicShedWhenSaturated(t *testing.T) {
	s, ts := testServer(t, Config{Base: testBase(), MaxInflight: 1, QueueDepth: -1})
	// Occupy the single execution slot; every heavy request must now shed
	// with 429 — deterministically, not timing-dependently.
	release, err := s.heavy.Acquire(context.Background(), s.tenants.Anonymous())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	for i := 0; i < 3; i++ {
		resp, body := get(t, ts.URL+"/api/v1/figures/table1")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated figure = %d, want 429 (body %s)", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 missing Retry-After")
		}
		if !strings.Contains(body, `"kind":"shed"`) {
			t.Fatalf("429 body not typed shed:\n%s", body)
		}
	}
	release()
	resp, _ := get(t, ts.URL+"/api/v1/figures/table1")
	if resp.StatusCode != 200 {
		t.Fatalf("figure after release = %d, want 200", resp.StatusCode)
	}
	snap := s.MetricsSnapshot()
	if snap.Shed429 != 3 {
		t.Fatalf("shed_429 = %d, want 3", snap.Shed429)
	}
	if snap.OK != 1 {
		t.Fatalf("ok = %d, want 1", snap.OK)
	}
}

func TestRequestTimeoutReturns504(t *testing.T) {
	s, ts := testServer(t, Config{Base: testBase()})
	resp, body := get(t, ts.URL+"/api/v1/figures/table1?timeout=1ns")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out figure = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"kind":"timeout"`) {
		t.Fatalf("504 body not typed timeout:\n%s", body)
	}
	if got := s.MetricsSnapshot().Timeout504; got != 1 {
		t.Fatalf("timeout_504 = %d, want 1", got)
	}
}

func TestBreakerOpensOnFailureBurstAndProbes(t *testing.T) {
	fault, err := faultinject.Parse("panic=1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	base := testBase()
	base.Fault = faultinject.New(fault)
	s, ts := testServer(t, Config{
		Base:             base,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	// Every task panics and the failure budget is 0, so each figure run is
	// an engine failure (500) — two open the breaker.
	for i := 0; i < 2; i++ {
		resp, body := get(t, ts.URL+"/api/v1/figures/table1")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulted figure = %d, want 500 (body %s)", resp.StatusCode, body)
		}
		if !strings.Contains(body, `"kind":"engine"`) {
			t.Fatalf("engine error body not typed:\n%s", body)
		}
	}
	if got := s.Breaker().State(); got != BreakerOpen {
		t.Fatalf("breaker state = %s, want open", got)
	}
	resp, body := get(t, ts.URL+"/api/v1/figures/table1")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker figure = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"kind":"breaker_open"`) || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("open-breaker response not typed:\nheaders %v\n%s", resp.Header, body)
	}
	// An open breaker also fails readiness.
	resp, _ = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker readyz = %d, want 503", resp.StatusCode)
	}
	// Flip the clock past the cooldown: the next request is the half-open
	// probe; it fails (faults persist) and the breaker re-opens.
	clock := newFakeClock()
	clock.t = time.Now().Add(2 * time.Hour)
	s.breaker.setClock(clock.now)
	resp, _ = get(t, ts.URL+"/api/v1/figures/table1")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("probe figure = %d, want 500", resp.StatusCode)
	}
	if got := s.Breaker().State(); got != BreakerOpen {
		t.Fatalf("breaker state after failed probe = %s, want open", got)
	}
	snap := s.MetricsSnapshot()
	if snap.Breaker.Opens != 2 || snap.Breaker.HalfOpenProbes != 1 {
		t.Fatalf("breaker counters = %+v", snap.Breaker)
	}
	if len(snap.Breaker.Transitions) == 0 {
		t.Fatal("breaker transitions not recorded")
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	s, ts := testServer(t, Config{Base: testBase()})
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	resp, body := get(t, ts.URL+"/boom")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking route = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(body, `"kind":"panic"`) {
		t.Fatalf("panic body not typed:\n%s", body)
	}
	if got := s.MetricsSnapshot().Panics; got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
	// The server keeps serving.
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("healthz after panic = %d, want 200", resp.StatusCode)
	}
}

func TestStatsEndpointEmbedsServerSection(t *testing.T) {
	o := &obs.Obs{Stats: obs.NewStats()}
	base := testBase()
	_, ts := testServer(t, Config{Base: base, Obs: o})
	resp, _ := get(t, ts.URL+"/api/v1/figures/table1")
	if resp.StatusCode != 200 {
		t.Fatalf("figure = %d, want 200", resp.StatusCode)
	}
	resp, body := get(t, ts.URL+"/api/v1/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("stats = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(body, `"server"`) || !strings.Contains(body, `"breaker"`) {
		t.Fatalf("stats output missing server/breaker section:\n%s", body[:min(len(body), 800)])
	}
	// Without a registry, stats 404s but metrics still serves.
	_, ts2 := testServer(t, Config{Base: base})
	resp, _ = get(t, ts2.URL+"/api/v1/stats")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats without registry = %d, want 404", resp.StatusCode)
	}
	resp, body = get(t, ts2.URL+"/api/v1/metrics")
	if resp.StatusCode != 200 || !strings.Contains(body, `"shed_429"`) {
		t.Fatalf("metrics = %d body:\n%s", resp.StatusCode, body)
	}
}

func TestOptionsOverridesAndCheckpointGating(t *testing.T) {
	base := testBase()
	s := New(Config{Base: base})
	q := map[string][]string{}
	o, isDefault, err := s.options(q)
	if err != nil || !isDefault {
		t.Fatalf("default options: isDefault=%v err=%v", isDefault, err)
	}
	if o.Scale != base.Scale || o.SamplerPeriod != base.SamplerPeriod {
		t.Fatalf("options changed base: %+v", o)
	}
	o, isDefault, err = s.options(map[string][]string{"scale": {"0.5"}})
	if err != nil || isDefault {
		t.Fatalf("scale override: isDefault=%v err=%v", isDefault, err)
	}
	if o.Scale != 0.5 {
		t.Fatalf("scale = %g, want 0.5", o.Scale)
	}
	if o.Save != nil {
		t.Fatal("non-default options must not carry checkpoint saver")
	}
	// Workers changes scheduling only and keeps the default fingerprint.
	_, isDefault, err = s.options(map[string][]string{"workers": {"7"}})
	if err != nil || !isDefault {
		t.Fatalf("workers override: isDefault=%v err=%v", isDefault, err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
