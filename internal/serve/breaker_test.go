package serve

import (
	"errors"
	"testing"
	"time"
)

// fakeClock drives a Breaker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func testBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	b := NewBreaker(threshold, cooldown)
	c := newFakeClock()
	b.setClock(c.now)
	return b, c
}

func mustAllow(t *testing.T, b *Breaker) func(Outcome) {
	t.Helper()
	report, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow() = %v, want admit (state %s)", err, b.State())
	}
	return report
}

func mustDeny(t *testing.T, b *Breaker) *BreakerOpenError {
	t.Helper()
	_, err := b.Allow()
	if err == nil {
		t.Fatalf("Allow() admitted, want denial (state %s)", b.State())
	}
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow() error %v does not wrap ErrBreakerOpen", err)
	}
	var open *BreakerOpenError
	if !errors.As(err, &open) {
		t.Fatalf("Allow() error %T, want *BreakerOpenError", err)
	}
	return open
}

func TestBreakerDisabled(t *testing.T) {
	b, _ := testBreaker(0, time.Second)
	for i := 0; i < 10; i++ {
		report := mustAllow(t, b)
		report(Failure)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("disabled breaker state = %s, want closed", got)
	}
	var nilB *Breaker
	if report, err := nilB.Allow(); err != nil {
		t.Fatalf("nil breaker Allow() = %v", err)
	} else {
		report(Failure) // must not panic
	}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, _ := testBreaker(3, 10*time.Second)
	for i := 0; i < 2; i++ {
		mustAllow(t, b)(Failure)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("after 2/3 failures state = %s, want closed", got)
	}
	mustAllow(t, b)(Failure)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after 3/3 failures state = %s, want open", got)
	}
	open := mustDeny(t, b)
	if open.State != BreakerOpen {
		t.Fatalf("denial state = %s, want open", open.State)
	}
	if open.RetryAfter <= 0 || open.RetryAfter > 10*time.Second {
		t.Fatalf("denial RetryAfter = %s, want within (0, cooldown]", open.RetryAfter)
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	mustAllow(t, b)(Failure)
	mustAllow(t, b)(Failure)
	mustAllow(t, b)(Success)
	mustAllow(t, b)(Failure)
	mustAllow(t, b)(Failure)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %s, want closed (success resets consecutive failures)", got)
	}
	mustAllow(t, b)(Failure)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %s, want open", got)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clock := testBreaker(1, 10*time.Second)
	mustAllow(t, b)(Failure) // opens
	mustDeny(t, b)
	clock.advance(11 * time.Second)

	probe, err := b.Allow()
	if err != nil {
		t.Fatalf("probe Allow() after cooldown = %v, want admit", err)
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open", got)
	}
	// Only one probe at a time.
	open := mustDeny(t, b)
	if open.State != BreakerHalfOpen {
		t.Fatalf("second probe denial state = %s, want half-open", open.State)
	}
	probe(Success)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after probe success = %s, want closed", got)
	}
	mustAllow(t, b)(Success)
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b, clock := testBreaker(2, 5*time.Second)
	mustAllow(t, b)(Failure)
	mustAllow(t, b)(Failure)
	clock.advance(6 * time.Second)
	probe := mustAllow(t, b)
	probe(Failure)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after probe failure = %s, want open", got)
	}
	mustDeny(t, b)
	// And the next cooldown yields a fresh probe.
	clock.advance(6 * time.Second)
	mustAllow(t, b)(Success)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after second probe success = %s, want closed", got)
	}
}

func TestBreakerCanceledLeavesStateAndFreesProbe(t *testing.T) {
	b, clock := testBreaker(1, time.Second)
	mustAllow(t, b)(Canceled)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after canceled = %s, want closed", got)
	}
	mustAllow(t, b)(Failure) // opens
	clock.advance(2 * time.Second)
	probe := mustAllow(t, b) // half-open probe
	probe(Canceled)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after canceled probe = %s, want half-open", got)
	}
	// The probe slot must be free again for the next request.
	next := mustAllow(t, b)
	next(Success)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %s, want closed", got)
	}
}

func TestBreakerReportIdempotent(t *testing.T) {
	b, _ := testBreaker(2, time.Second)
	report := mustAllow(t, b)
	report(Failure)
	report(Failure) // second call must be a no-op
	report(Failure)
	if got := b.Snapshot().ConsecutiveFailures; got != 1 {
		t.Fatalf("consecutive failures = %d, want 1 (report is one-shot)", got)
	}
}

func TestBreakerSnapshotTransitions(t *testing.T) {
	b, clock := testBreaker(1, time.Second)
	mustAllow(t, b)(Failure)
	clock.advance(2 * time.Second)
	mustAllow(t, b)(Success)
	snap := b.Snapshot()
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(snap.Transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", snap.Transitions, want)
	}
	for i := range want {
		if snap.Transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", snap.Transitions, want)
		}
	}
	if snap.Opens != 1 || snap.HalfOpenProbes != 1 || snap.Successes != 1 || snap.Failures != 1 {
		t.Fatalf("snapshot counters = %+v", snap)
	}
	if snap.State != "closed" {
		t.Fatalf("snapshot state = %q, want closed", snap.State)
	}
}
