package backoff

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDelayIsJitteredCappedExponential(t *testing.T) {
	p := Policy{BackoffBase: 10 * time.Millisecond, BackoffMax: 65 * time.Millisecond}
	j := NewJitter(p, 7)
	for _, tc := range []struct {
		attempt int
		d       time.Duration // min(Base·2^(attempt-1), Max)
	}{
		{1, 10 * time.Millisecond},
		{2, 20 * time.Millisecond},
		{3, 40 * time.Millisecond},
		{4, 65 * time.Millisecond}, // 80ms capped
		{9, 65 * time.Millisecond},
		{0, 10 * time.Millisecond}, // out-of-range attempts behave like the first
	} {
		lo, hi := tc.d, time.Duration(0)
		for i := 0; i < 200; i++ {
			got := j.Delay(tc.attempt)
			if got < tc.d/2 || got > tc.d {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", tc.attempt, got, tc.d/2, tc.d)
			}
			lo, hi = min(lo, got), max(hi, got)
		}
		if lo == hi {
			t.Errorf("attempt %d: 200 draws all equal %v — no jitter", tc.attempt, lo)
		}
	}
	// The same seed replays the same delays.
	a, b := NewJitter(p, 42), NewJitter(p, 42)
	for n := 1; n <= 6; n++ {
		if x, y := a.Delay(n), b.Delay(n); x != y {
			t.Fatalf("seeded sources diverged at attempt %d: %v vs %v", n, x, y)
		}
	}
}

func TestPolicyDefaults(t *testing.T) {
	want := Policy{BackoffBase: 50 * time.Millisecond, BackoffMax: 2 * time.Second,
		BreakerThreshold: 3, BreakerCooldown: 5 * time.Second}
	if got := (Policy{}).WithDefaults(); got != want {
		t.Errorf("defaults = %+v, want %+v", got, want)
	}
	set := Policy{BackoffBase: time.Millisecond, BackoffMax: time.Second,
		BreakerThreshold: 9, BreakerCooldown: time.Minute}
	if got := set.WithDefaults(); got != set {
		t.Errorf("WithDefaults overwrote set knobs: %+v", got)
	}
}

func TestSleepHonoursCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	t0 := time.Now()
	if err := Sleep(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on a cancelled context = %v, want context.Canceled", err)
	}
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("Sleep returned %v after the cancel", el)
	}
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Sleep = %v", err)
	}
}

// TestConcurrentJitterAndBreaker hammers the two mutex-guarded objects from
// several goroutines; the GOMAXPROCS race sweeps in CI run it.
func TestConcurrentJitterAndBreaker(t *testing.T) {
	p := Policy{BackoffBase: time.Millisecond, BackoffMax: 8 * time.Millisecond}
	j := NewJitter(p, 3)
	b := NewBreaker(3, time.Nanosecond, time.Now)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 1; i <= 500; i++ {
				if d := j.Delay(i % 6); d < p.BackoffBase/2 || d > p.BackoffMax {
					t.Errorf("delay %v out of range", d)
					return
				}
				if b.Allow() {
					if (i+g)%3 == 0 {
						b.Success()
					} else {
						b.Failure()
					}
				}
				_ = b.Current()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
