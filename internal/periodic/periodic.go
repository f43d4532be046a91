// Package periodic abstracts time for every time-dependent component of the
// system: alert timestamps, datetime() in queries and Essential Summary
// rollovers. A deployment runs on RealClock; a simulation or test injects a
// ManualClock and advances it explicitly (e.g. one day per step, as in the
// Essential Summary experiments), which makes periodic behaviour fully
// deterministic. The paper's prototype gets its one periodic job, the
// summary rollover check, from apoc.periodic.repeat; here
// KnowledgeBase.Tick runs it against whichever Clock the knowledge base was
// built on.
package periodic

import (
	"sync"
	"time"
)

// Clock abstracts time for summary managers and rule engines.
type Clock interface {
	Now() time.Time
}

// RealClock reads the wall clock.
type RealClock struct{}

// Now returns time.Now().
func (RealClock) Now() time.Time { return time.Now() }

// ManualClock is an explicitly advanced clock for deterministic tests and
// simulations.
type ManualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewManualClock returns a manual clock set to start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{t: start}
}

// Now returns the clock's current time.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d and returns the new time.
func (c *ManualClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// Set moves the clock to t.
func (c *ManualClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = t
}
