package backoff

import (
	"testing"
	"time"
)

// manualNow is a settable clock for breaker tests.
type manualNow struct{ t time.Time }

func (m *manualNow) now() time.Time { return m.t }

func TestBreakerTransitions(t *testing.T) {
	clk := &manualNow{t: time.Unix(0, 0)}
	b := NewBreaker(3, 5*time.Second, clk.now)

	if got := b.Current(); got != Closed {
		t.Fatalf("initial state %v", got)
	}
	// Failures below the threshold keep the circuit closed.
	b.Failure()
	b.Failure()
	if !b.Allow() {
		t.Fatal("closed circuit refused a push")
	}
	// A success resets the consecutive-failure count.
	b.Success()
	b.Failure()
	b.Failure()
	if got := b.Current(); got != Closed {
		t.Fatalf("state after reset+2 failures = %v", got)
	}
	// The threshold-th consecutive failure opens the circuit.
	b.Failure()
	if got := b.Current(); got != Open {
		t.Fatalf("state after 3 consecutive failures = %v", got)
	}
	if b.Allow() {
		t.Fatal("open circuit allowed a push before cooldown")
	}

	// After the cooldown, exactly one half-open probe is admitted.
	clk.t = clk.t.Add(5 * time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if got := b.Current(); got != HalfOpen {
		t.Fatalf("state during probe = %v", got)
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted in half-open")
	}

	// A failed probe reopens for another full cooldown.
	b.Failure()
	if got := b.Current(); got != Open {
		t.Fatalf("state after failed probe = %v", got)
	}
	clk.t = clk.t.Add(4 * time.Second)
	if b.Allow() {
		t.Fatal("reopened circuit admitted a push before its new cooldown")
	}
	clk.t = clk.t.Add(time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused after cooldown")
	}

	// A successful probe closes the circuit.
	b.Success()
	if got := b.Current(); got != Closed {
		t.Fatalf("state after successful probe = %v", got)
	}
	if !b.Allow() {
		t.Fatal("closed circuit refused a push")
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Closed:   "closed",
		HalfOpen: "half-open",
		Open:     "open",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}
