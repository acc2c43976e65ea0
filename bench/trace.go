package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of one operation. Parent is the index of the
// innermost enclosing span of the same operation (-1 for the root); it is
// assigned by containment when the trace is closed.
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  int     `json:"parent"`
}

// tracer keeps spans in memory. The traced pass replays operations one at
// a time, so every span recorded while operation k is current belongs to k.
// A nil tracer records nothing.
type tracer struct {
	t0 time.Time
	on atomic.Bool
	op atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin makes op current and switches recording on or off for it.
func (t *tracer) begin(op int, record bool) {
	t.op.Store(int64(op))
	t.on.Store(record)
}

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

func (t *tracer) add(name string, start, end time.Time) {
	if !t.recording() {
		return
	}
	s := span{
		Name:    name,
		Op:      int(t.op.Load()),
		StartUS: float64(start.Sub(t.t0)) / 1e3,
		EndUS:   float64(end.Sub(t.t0)) / 1e3,
		Parent:  -1,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap records one span per request around h. With a nil tracer it returns
// h itself, so the untraced pass runs the program's handler unwrapped.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(name, start, time.Now())
	})
}

// lastStart returns the start of the current operation's latest span of the
// given name: spans known only by duration (a response's elapsed_ms, a
// result's stage timings) are laid out from it.
func (t *tracer) lastStart(name string) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	op := int(t.op.Load())
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Op == op; i-- {
		if t.spans[i].Name == name {
			return t.t0.Add(time.Duration(t.spans[i].StartUS * 1e3)), true
		}
	}
	return time.Time{}, false
}

// spanTimes holds, for one span name, each operation's time in ms: total is
// the spans' duration, self is the duration minus the part of it that child
// spans cover (overlapping children, such as parallel shards, count once).
type spanTimes struct{ self, total []float64 }

// selfTimes links parents by containment and returns the times per span
// name. An operation with several spans of one name (the three handler
// calls of a measure bundle) contributes their sum; one with none
// contributes nothing.
func (t *tracer) selfTimes() map[string]spanTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	// Per operation, outer spans first.
	sort.SliceStable(order, func(a, b int) bool {
		x, y := t.spans[order[a]], t.spans[order[b]]
		if x.Op != y.Op {
			return x.Op < y.Op
		}
		if x.StartUS != y.StartUS {
			return x.StartUS < y.StartUS
		}
		return x.EndUS > y.EndUS
	})
	var stack []int
	children := make(map[int][]int)
	for _, i := range order {
		s := &t.spans[i]
		for len(stack) > 0 {
			top := t.spans[stack[len(stack)-1]]
			if top.Op == s.Op && top.StartUS <= s.StartUS && s.EndUS <= top.EndUS {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
			children[s.Parent] = append(children[s.Parent], i)
		}
		stack = append(stack, i)
	}
	type opTimes struct{ self, total float64 }
	perOp := make(map[string]map[int]opTimes)
	for i, s := range t.spans {
		covered, reach := 0.0, s.StartUS
		for _, c := range children[i] { // already in start order
			cs := t.spans[c]
			if cs.EndUS > reach {
				covered += cs.EndUS - max(cs.StartUS, reach)
				reach = cs.EndUS
			}
		}
		if perOp[s.Name] == nil {
			perOp[s.Name] = make(map[int]opTimes)
		}
		ot := perOp[s.Name][s.Op]
		ot.total += (s.EndUS - s.StartUS) / 1e3
		ot.self += (s.EndUS - s.StartUS - covered) / 1e3
		perOp[s.Name][s.Op] = ot
	}
	out := make(map[string]spanTimes, len(perOp))
	for name, ops := range perOp {
		var st spanTimes
		for _, ot := range ops {
			st.self = append(st.self, ot.self)
			st.total = append(st.total, ot.total)
		}
		out[name] = st
	}
	return out
}

// write stores the spans as JSON; call it after selfTimes so parents are set.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
