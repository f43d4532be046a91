package backoff

import (
	"sync"
	"time"
)

// State enumerates the circuit-breaker states. The numeric values
// are exported as the rkm_fed_breaker_state gauge, ordered by severity.
type State int

// Breaker states.
const (
	Closed State = iota
	HalfOpen
	Open
)

// String returns the conventional state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	case Open:
		return "open"
	default:
		return "unknown"
	}
}

// Breaker is a per-peer circuit breaker: after threshold consecutive
// failures the circuit opens and pushes to the peer are refused locally
// (fail-fast, no network traffic) until cooldown elapses; then a single
// half-open probe is let through — its success closes the circuit, its
// failure reopens it for another cooldown.
type Breaker struct {
	now       func() time.Time
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    State
	failures int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
	probing  bool      // a half-open probe is in flight
}

// NewBreaker returns a closed breaker reading the time from now.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	return &Breaker{now: now, threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a push attempt may proceed. In the open state it
// transitions to half-open once the cooldown has elapsed and admits exactly
// one probe; concurrent callers are refused until that probe settles.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success records a successful push and closes the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.failures = 0
	b.probing = false
}

// Failure records a failed push: a half-open probe reopens the circuit
// immediately, a closed circuit opens after threshold consecutive failures.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	switch b.state {
	case HalfOpen:
		b.state = Open
		b.openedAt = b.now()
	case Closed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = Open
			b.openedAt = b.now()
		}
	}
}

// Current returns the state for status reports and the breaker gauge.
func (b *Breaker) Current() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
