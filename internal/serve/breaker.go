package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// BreakerState is the circuit breaker's typed state, exposed verbatim in
// health and metrics output.
type BreakerState int

// Breaker states, in the classic closed → open → half-open cycle.
const (
	// BreakerClosed passes every request through; consecutive engine
	// failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects every request until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe request; its outcome decides
	// whether the breaker closes again or re-opens.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// ErrBreakerOpen marks requests rejected because the circuit breaker is
// open (or half-open with its probe already in flight).
var ErrBreakerOpen = errors.New("serve: circuit breaker open")

// BreakerOpenError carries the state and the caller's retry hint; it wraps
// ErrBreakerOpen so errors.Is works.
type BreakerOpenError struct {
	State      BreakerState
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("serve: circuit breaker %s; retry after %s", e.State, e.RetryAfter)
}

func (e *BreakerOpenError) Unwrap() error { return ErrBreakerOpen }

// Outcome classifies how a breaker-guarded request ended.
type Outcome int

// Request outcomes reported back to the breaker.
const (
	// Success: the engine completed the request.
	Success Outcome = iota
	// Failure: the engine failed (TaskError burst, deadline expiry) — the
	// signal that trips the breaker.
	Failure
	// Canceled: the client went away; says nothing about engine health and
	// leaves the breaker state untouched (a canceled half-open probe frees
	// the probe slot so the next request can probe).
	Canceled
)

// Breaker is a circuit breaker around a fallible backend: Threshold
// consecutive failures open it, rejections flow fast for Cooldown, then a
// single half-open probe decides whether to close it again. All methods
// are safe for concurrent use. A Threshold <= 0 disables the breaker
// entirely (Allow always admits).
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	mu       sync.Mutex
	state    BreakerState
	fails    int // consecutive failures while closed
	openedAt time.Time
	probing  bool

	opens, probes, successes, failures, denied int64
	probeSuccesses, probeFailures              int64
	transitions                                []string
}

// NewBreaker builds a breaker that opens after threshold consecutive
// failures and probes again after cooldown. threshold <= 0 disables it.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if cooldown <= 0 {
		cooldown = 10 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// setClock replaces the breaker's wall clock; tests use it to step
// through cooldowns deterministically.
func (b *Breaker) setClock(now func() time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
}

// maxTransitionLog bounds the transition history kept for observability.
const maxTransitionLog = 32

// transition records a state change (caller holds b.mu).
func (b *Breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	entry := fmt.Sprintf("%s->%s", b.state, to)
	if len(b.transitions) < maxTransitionLog {
		b.transitions = append(b.transitions, entry)
	}
	if to == BreakerOpen {
		b.opens++
		b.openedAt = b.now()
	}
	b.state = to
}

// Allow asks to run one request against the protected backend. On admission
// it returns a report callback that MUST be called exactly once with the
// request's outcome; on rejection it returns a *BreakerOpenError with a
// retry hint.
func (b *Breaker) Allow() (report func(Outcome), err error) {
	if b == nil || b.threshold <= 0 {
		return func(Outcome) {}, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		if wait := b.openedAt.Add(b.cooldown).Sub(b.now()); wait > 0 {
			b.denied++
			return nil, &BreakerOpenError{State: BreakerOpen, RetryAfter: wait}
		}
		b.transition(BreakerHalfOpen)
	}
	if b.state == BreakerHalfOpen {
		if b.probing {
			b.denied++
			return nil, &BreakerOpenError{State: BreakerHalfOpen, RetryAfter: b.cooldown}
		}
		b.probing = true
		b.probes++
		return b.reportFunc(true), nil
	}
	return b.reportFunc(false), nil
}

// reportFunc builds the one-shot outcome callback for an admitted request.
func (b *Breaker) reportFunc(probe bool) func(Outcome) {
	var once sync.Once
	return func(out Outcome) {
		once.Do(func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			if probe {
				b.probing = false
			}
			switch out {
			case Canceled:
				// Client cancellation is not an engine verdict.
			case Success:
				b.successes++
				if probe {
					b.probeSuccesses++
				}
				if probe && b.state == BreakerHalfOpen {
					b.transition(BreakerClosed)
				}
				if b.state == BreakerClosed {
					b.fails = 0
				}
			case Failure:
				b.failures++
				if probe {
					b.probeFailures++
				}
				if probe && b.state == BreakerHalfOpen {
					b.fails = b.threshold
					b.transition(BreakerOpen)
					return
				}
				if b.state == BreakerClosed {
					b.fails++
					if b.fails >= b.threshold {
						b.transition(BreakerOpen)
					}
				}
			}
		})
	}
}

// State returns the current state (re-evaluating an elapsed cooldown is
// left to the next Allow; State reports the stored value).
func (b *Breaker) State() BreakerState {
	if b == nil || b.threshold <= 0 {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerSnapshot is the breaker's observable state for health and metrics
// output.
type BreakerSnapshot struct {
	State               string   `json:"state"`
	ConsecutiveFailures int      `json:"consecutive_failures"`
	Opens               int64    `json:"opens"`
	HalfOpenProbes      int64    `json:"half_open_probes"`
	ProbeSuccesses      int64    `json:"half_open_probe_successes"`
	ProbeFailures       int64    `json:"half_open_probe_failures"`
	Successes           int64    `json:"successes"`
	Failures            int64    `json:"failures"`
	Denied              int64    `json:"denied"`
	Transitions         []string `json:"transitions,omitempty"`
}

// Snapshot captures the breaker's counters and transition history.
func (b *Breaker) Snapshot() BreakerSnapshot {
	if b == nil || b.threshold <= 0 {
		return BreakerSnapshot{State: BreakerClosed.String()}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		State:               b.state.String(),
		ConsecutiveFailures: b.fails,
		Opens:               b.opens,
		HalfOpenProbes:      b.probes,
		ProbeSuccesses:      b.probeSuccesses,
		ProbeFailures:       b.probeFailures,
		Successes:           b.successes,
		Failures:            b.failures,
		Denied:              b.denied,
		Transitions:         append([]string(nil), b.transitions...),
	}
}
