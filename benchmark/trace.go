package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// noSpan is the parent of a root span and the id a nil recorder hands out.
const noSpan = -1

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Times are nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // operation the span belongs to
	Parent int    `json:"parent"` // index of the causing span, noSpan for a root
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// tracing-off state: begin and end cost one nil check, so the staged write
// path can run with and without spans and the difference is the tracing
// overhead.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return noSpan
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span name, each span's duration minus the part of
// it its direct children cover, in nanoseconds. Children are clipped to the
// parent's interval and never overlap each other here (one goroutine runs an
// operation's spans in sequence), so the covered part is a plain sum.
func selfTimes(spans []span) map[string][]float64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		start, end := max(s.Start, p.Start), min(s.End, p.End)
		if end > start {
			covered[s.Parent] += end - start
		}
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		self := s.End - s.Start - covered[i]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], float64(self))
	}
	return out
}

// durations returns, per span name, each span's full duration in
// nanoseconds.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}

// writeSpans dumps spans for offline inspection.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
