package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prefetchlab/internal/ckpt"
	"prefetchlab/internal/experiments"
	"prefetchlab/internal/faultinject"
	"prefetchlab/internal/tenant"
)

// mustFault builds a fault injector from a spec string.
func mustFault(t *testing.T, spec string) *faultinject.Injector {
	t.Helper()
	s, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return faultinject.New(s)
}

// TestChaosConcurrentLoadUnderFaults hammers a small-capacity server with
// concurrent requests while every engine task is subject to injected
// panics, errors and latency. The server must never crash, every response
// must be a complete 200 body or a typed JSON error from the known status
// set, and liveness must hold throughout.
func TestChaosConcurrentLoadUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos load test skipped in -short")
	}
	base := testBase()
	base.Fault = mustFault(t, "panic=0.2,error=0.2,latency=0.2,seed=11")
	base.Retries = 1
	base.FailureBudget = -1
	s, ts := testServer(t, Config{
		Base:             base,
		MaxInflight:      2,
		QueueDepth:       2,
		BreakerThreshold: 3,
		BreakerCooldown:  30 * time.Millisecond,
		RequestTimeout:   20 * time.Second,
	})

	paths := []string{
		"/api/v1/figures/table1",
		"/api/v1/figures/fig3",
		"/api/v1/mrc?bench=libquantum",
		"/api/v1/mix?apps=libquantum&policies=hw",
		"/api/v1/figures/table1?timeout=5ms",
		"/api/v1/figures/nosuch",
		"/api/v1/figures/table1?scale=bogus",
	}
	allowed := map[int]bool{200: true, 400: true, 404: true, 429: true, 500: true, 503: true, 504: true}

	var wg sync.WaitGroup
	errs := make(chan string, 1024)
	const clients = 8
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < len(paths); i++ {
				path := paths[(c+i)%len(paths)]
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errs <- fmt.Sprintf("GET %s: transport error %v (server crashed?)", path, err)
					return
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					errs <- fmt.Sprintf("GET %s: body read error %v", path, rerr)
					return
				}
				if !allowed[resp.StatusCode] {
					errs <- fmt.Sprintf("GET %s: unexpected status %d", path, resp.StatusCode)
					return
				}
				if resp.StatusCode != 200 {
					var eb errorBody
					if err := json.Unmarshal(body, &eb); err != nil || eb.Kind == "" {
						errs <- fmt.Sprintf("GET %s: %d body is not a typed JSON error: %s", path, resp.StatusCode, body)
						return
					}
				}
			}
		}(c)
	}
	// Liveness must hold while the chaos load runs.
	livenessDone := make(chan struct{})
	go func() {
		defer close(livenessDone)
		for i := 0; i < 20; i++ {
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				errs <- fmt.Sprintf("healthz during chaos: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Sprintf("healthz during chaos = %d", resp.StatusCode)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-livenessDone
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	snap := s.MetricsSnapshot()
	if snap.Requests == 0 || snap.Inflight != 0 || snap.Queued != 0 {
		t.Fatalf("post-chaos metrics: %+v", snap)
	}
	if got := snap.OK + snap.BadRequest400 + snap.NotFound404 + snap.Shed429 +
		snap.Shed503 + snap.Timeout504 + snap.Errors500 + snap.ClientGone; got == 0 {
		t.Fatalf("no classified responses recorded: %+v", snap)
	}
}

// TestChaosResumeByteIdentical interrupts a served sweep mid-flight (tight
// deadline) with a checkpoint attached, then restarts the server on the
// same checkpoint at a different worker count: the resumed figure must be
// byte-identical to an uninterrupted run.
func TestChaosResumeByteIdentical(t *testing.T) {
	base := testBase()
	norm := base.Normalized()

	// Uninterrupted reference rendering, no checkpoint.
	var want bytes.Buffer
	ref := base
	ref.Out = &want
	if err := experiments.Run(context.Background(), experiments.NewSession(ref), "table1"); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	path := filepath.Join(t.TempDir(), "serve.ckpt")
	fp := norm.Fingerprint()

	// Server A: interrupt a request with a tight deadline, then a full
	// request that populates the checkpoint.
	cpA, err := ckpt.Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	srvA := New(Config{Base: base, Checkpoint: cpA})
	tsA := httptest.NewServer(srvA.Handler())
	resp, err := http.Get(tsA.URL + "/api/v1/figures/table1?timeout=1ms")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusOK {
		t.Fatalf("interrupted request = %d, want 504 (or 200 if it won the race)", resp.StatusCode)
	}
	resp, err = http.Get(tsA.URL + "/api/v1/figures/table1")
	if err != nil {
		t.Fatal(err)
	}
	bodyA, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server A full request = %d: %s", resp.StatusCode, bodyA)
	}
	tsA.Close()
	if err := cpA.Close(); err != nil {
		t.Fatal(err)
	}

	// Server B: same configuration, different worker count, resumed
	// checkpoint — the rendering must replay to identical bytes.
	cpB, err := ckpt.Open(path, fp)
	if err != nil {
		t.Fatalf("reopen checkpoint: %v", err)
	}
	defer cpB.Close()
	baseB := base
	baseB.Workers = 7
	srvB := New(Config{Base: baseB, Checkpoint: cpB})
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	resp, err = http.Get(tsB.URL + "/api/v1/figures/table1")
	if err != nil {
		t.Fatal(err)
	}
	bodyB, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server B resumed request = %d: %s", resp.StatusCode, bodyB)
	}
	if string(bodyA) != want.String() {
		t.Fatalf("server A rendering differs from CLI reference.\nA:\n%s\nref:\n%s", bodyA, want.String())
	}
	if string(bodyB) != want.String() {
		t.Fatalf("resumed rendering differs from reference.\nB:\n%s\nref:\n%s", bodyB, want.String())
	}

	// A request that overrides result-affecting options on server B must
	// succeed without touching the shared checkpoint (gating), and still
	// leave default-config requests byte-identical afterwards.
	resp, err = http.Get(tsB.URL + "/api/v1/figures/table1?scale=0.03")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("override request = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(tsB.URL + "/api/v1/figures/table1")
	if err != nil {
		t.Fatal(err)
	}
	bodyB2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(bodyB2) != want.String() {
		t.Fatal("default-config rendering changed after an override request")
	}
}

// TestChaosDrainCompletesInflight verifies graceful degradation: flipping
// drain mode mid-request sheds new arrivals with 503 but lets the
// in-flight request complete with a full 200 body.
func TestChaosDrainCompletesInflight(t *testing.T) {
	base := testBase()
	base.Fault = mustFault(t, "latency=1,seed=5")
	s, ts := testServer(t, Config{Base: base, MaxInflight: 2})

	type result struct {
		status int
		body   string
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/api/v1/figures/table1")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		inflight <- result{status: resp.StatusCode, body: string(body)}
	}()
	// Wait until the request holds a slot, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.heavy.Inflight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.heavy.Inflight() == 0 {
		t.Fatal("request never became inflight")
	}
	s.SetDraining(true)
	resp, body := get(t, ts.URL+"/api/v1/figures/table1")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("new request during drain = %d body %s, want 503 draining", resp.StatusCode, body)
	}
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK || !strings.Contains(r.body, "Benchmark") {
		t.Fatalf("in-flight request = %d body %q, want complete 200 rendering", r.status, r.body)
	}
}

// TestChaosTenantFloodIsolation verifies fair-share isolation over HTTP:
// with the single execution slot held, a flooding tenant fills its own
// queue and sheds 429 beyond it, while a polite tenant still queues and —
// once the slot frees — completes, having never been shed.
func TestChaosTenantFloodIsolation(t *testing.T) {
	reg, err := tenant.NewRegistry([]tenant.Spec{
		{Name: "flood", Key: "sk-flood"},
		{Name: "polite", Key: "sk-polite"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Config{Base: testBase(), Tenants: reg, MaxInflight: 1, QueueDepth: 1})

	// Hold the only slot so every request below queues or sheds.
	release, err := s.heavy.Acquire(context.Background(), s.TenantRegistry().Anonymous())
	if err != nil {
		t.Fatal(err)
	}

	do := func(key string, out chan<- int) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/figures/table1", nil)
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out <- resp.StatusCode
	}

	// Flood: three concurrent requests against a per-tenant queue of one —
	// exactly one queues, two shed 429.
	floodResults := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go do("sk-flood", floodResults)
	}
	deadline := time.Now().Add(5 * time.Second)
	sheds := func() int64 {
		for _, snap := range s.heavy.Snapshots() {
			if snap.Name == "flood" {
				return snap.ShedQueue
			}
		}
		return 0
	}
	for sheds() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sheds(); got != 2 {
		t.Fatalf("flood queue-full sheds = %d, want 2", got)
	}

	// The polite tenant queues in its own lane, untouched by the flood.
	politeResult := make(chan int, 1)
	go do("sk-polite", politeResult)
	for s.heavy.Queued() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.heavy.Queued(); got != 2 {
		t.Fatalf("queued = %d, want 2 (one flood + one polite)", got)
	}

	release()
	statuses := map[int]int{}
	statuses[<-politeResult]++
	for i := 0; i < 3; i++ {
		statuses[<-floodResults]++
	}
	if statuses[http.StatusOK] != 2 || statuses[http.StatusTooManyRequests] != 2 {
		t.Fatalf("statuses = %v, want two 200s (queued flood + polite) and two 429s", statuses)
	}
	for _, snap := range s.heavy.Snapshots() {
		if snap.Name == "polite" && (snap.ShedQueue != 0 || snap.ShedQuota != 0 || snap.ShedRate != 0) {
			t.Fatalf("polite tenant was shed: %+v", snap)
		}
	}
}
