package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced child around
// the public function it calls. Times are microseconds since the child
// started; Parent is the id of the span that caused it (0: none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Cat    string  `json:"cat"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
	Lane   int     `json:"lane"`
}

// spanRecorder keeps a traced child's spans in memory until it exits. A nil
// recorder records nothing, so untraced runs pay one nil test per call.
type spanRecorder struct {
	mu      sync.Mutex
	origin  time.Time
	nextID  int
	spans   []span
	laneEnd []float64 // per concurrent lane, the end of its last span
}

func newSpanRecorder(origin time.Time) *spanRecorder {
	return &spanRecorder{origin: origin}
}

// newID reserves a span id, so children can name a parent whose span is
// recorded only when it ends.
func (r *spanRecorder) newID() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a span on the main lane (0), which only the child's own
// goroutine uses. id 0 allocates a fresh id.
func (r *spanRecorder) add(id, parent int, name, cat string, start, end time.Time) {
	r.record(id, parent, name, cat, start, end, false)
}

// addConcurrent records a span from a simulation worker on the first lane
// above 0 that is free at its start, so overlapping cells never share one.
func (r *spanRecorder) addConcurrent(parent int, name, cat string, start, end time.Time) {
	r.record(0, parent, name, cat, start, end, true)
}

func (r *spanRecorder) record(id, parent int, name, cat string, start, end time.Time, concurrent bool) {
	if r == nil {
		return
	}
	s := span{
		ID: id, Parent: parent, Name: name, Cat: cat,
		Start: float64(start.Sub(r.origin).Nanoseconds()) / 1e3,
		Dur:   float64(end.Sub(start).Nanoseconds()) / 1e3,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.nextID++
		s.ID = r.nextID
	}
	if concurrent {
		s.Lane = len(r.laneEnd) + 1
		for i, e := range r.laneEnd {
			if e <= s.Start {
				s.Lane = i + 1
				break
			}
		}
		if s.Lane > len(r.laneEnd) {
			r.laneEnd = append(r.laneEnd, 0)
		}
		r.laneEnd[s.Lane-1] = s.Start + s.Dur
	}
	r.spans = append(r.spans, s)
}

// snapshot returns the recorded spans.
func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// traceEvent is one Chrome trace-event object (the format Perfetto loads):
// X events carry a duration, M events name a process.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeSpans writes the traced children's spans as one Chrome trace-event
// file: each traced repeat is a process, lane 0 its driving goroutine and
// lanes 1.. the simulations running beside it.
func writeSpans(path string, runs []tracedRun) error {
	events := []traceEvent{}
	for i, run := range runs {
		pid := i + 1
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("%s seed %d repeat %d", run.workload, run.seed, run.repeat)}})
		for _, s := range run.spans {
			args := map[string]any{"id": s.ID}
			if s.Parent != 0 {
				args["parent"] = s.Parent
			}
			events = append(events, traceEvent{Name: s.Name, Cat: s.Cat, Ph: "X",
				Ts: s.Start, Dur: s.Dur, Pid: pid, Tid: s.Lane, Args: args})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedRun is one traced child's spans with the coordinates that name its
// Perfetto process.
type tracedRun struct {
	workload string
	seed     int64
	repeat   int
	spans    []span
}
