// Package backoff is the one retry-pacing policy of the wire transports
// (internal/fednet's pushes, internal/replica's stream reconnects): capped
// exponential backoff with jitter, a context-aware sleep, and a
// failure-count circuit breaker. It depends on nothing in this module.
package backoff

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Policy holds the four timing knobs of a retry loop. Transports embed it
// in their Options; the zero value gives production defaults.
type Policy struct {
	// BackoffBase is the delay after the first failure; it doubles per
	// consecutive failure (default 50ms).
	BackoffBase time.Duration
	// BackoffMax caps the backoff delay (default 2s).
	BackoffMax time.Duration
	// BreakerThreshold is the consecutive-failure count after which the
	// caller stops hammering the other side (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long it then stays away (default 5s).
	BreakerCooldown time.Duration
}

// WithDefaults fills unset knobs with the production defaults.
func (p Policy) WithDefaults() Policy {
	if p.BackoffBase <= 0 {
		p.BackoffBase = 50 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 2 * time.Second
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 3
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 5 * time.Second
	}
	return p
}

// Jitter is a Policy bound to a random source; safe for concurrent use.
type Jitter struct {
	p   Policy
	mu  sync.Mutex
	rng *rand.Rand
}

// NewJitter binds p to a source seeded with seed (0 = time-based; tests pass
// a fixed seed for reproducible delays).
func NewJitter(p Policy, seed int64) *Jitter {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Jitter{p: p, rng: rand.New(rand.NewSource(seed))}
}

// Delay returns the wait before retry number attempt (1-based): with
// d = min(BackoffBase·2^(attempt-1), BackoffMax), a uniform draw from
// [d/2, d], so callers that failed together spread out instead of
// re-dialling in lock-step.
func (j *Jitter) Delay(attempt int) time.Duration {
	d := j.p.BackoffBase
	for i := 1; i < attempt && d < j.p.BackoffMax; i++ {
		d *= 2
	}
	if d > j.p.BackoffMax {
		d = j.p.BackoffMax
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return d/2 + time.Duration(j.rng.Int63n(int64(d/2)+1))
}

// Sleep waits d, or returns ctx.Err() as soon as ctx is cancelled.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
