package periodic

import (
	"testing"
	"time"
)

var t0 = time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)

func TestManualClock(t *testing.T) {
	c := NewManualClock(t0)
	if !c.Now().Equal(t0) {
		t.Error("initial time")
	}
	if got := c.Advance(time.Hour); !got.Equal(t0.Add(time.Hour)) {
		t.Error("advance")
	}
	c.Set(t0)
	if !c.Now().Equal(t0) {
		t.Error("set")
	}
}

func TestRealClock(t *testing.T) {
	before := time.Now()
	got := RealClock{}.Now()
	if got.Before(before.Add(-time.Second)) {
		t.Error("real clock is off")
	}
}
