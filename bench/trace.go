package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds: how the benchmark obtained the interval.
const (
	kindDirect   = "D" // timed around an exported call inside the op
	kindCallback = "C" // timed around a callback the layer accepts
	kindReplay   = "R" // the same call repeated on the same inputs after the op
)

// span is one timed call into a layer. All spans of one op share its op
// index; set-up repetition r records its spans under op -(r+1).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1: no parent (an op's root span, or a replay)
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced run in memory. A nil *tracer
// records nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	workload string
	zero     time.Time
	op       atomic.Int64 // op index stamped on new spans; callbacks on other goroutines read it

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, zero: time.Now()}
}

// setOp sets the op index stamped on the spans begun from now on.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op.Store(int64(op))
	}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, kind string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.zero).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Kind: kind, Workload: t.workload,
		Op: int(t.op.Load()), StartNs: now, EndNs: now,
	})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.zero).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfNs is the span's duration minus the part of its interval that its
// children cover. Children may nest further, touch or overlap each other
// (callbacks run on other goroutines), so their intervals are clipped to
// the span and merged before they are subtracted.
func selfNs(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.StartNs, s.StartNs), min(c.EndNs, s.EndNs)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	self := s.EndNs - s.StartNs
	var end int64 = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			self -= v.b - v.a
			end = v.b
		} else if v.b > end {
			self -= v.b - end
			end = v.b
		}
	}
	return self
}

// selfTimes returns every span's self time, indexed by span id.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = selfNs(s, children[s.ID])
	}
	return out
}

// perOp sums value[i] (nanoseconds) over the spans called name, per op,
// in milliseconds.
func perOp(spans []span, value []int64, name string) map[int]float64 {
	sums := make(map[int]float64)
	for i, s := range spans {
		if s.Name == name {
			sums[s.Op] += float64(value[i]) / 1e6
		}
	}
	return sums
}

// opValues lists a perOp result's values in op order. When the span
// occurs in timed ops (op >= 0) only those count; otherwise the set-up
// repetitions do, so a set-up span reports its median over repetitions.
func opValues(sums map[int]float64) []float64 {
	var ops []int
	timed := false
	for op := range sums {
		ops = append(ops, op)
		timed = timed || op >= 0
	}
	sort.Ints(ops)
	var out []float64
	for _, op := range ops {
		if op >= 0 || !timed {
			out = append(out, sums[op])
		}
	}
	return out
}

// durations returns every span's duration, indexed by span id.
func durations(spans []span) []int64 {
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.EndNs - s.StartNs
	}
	return out
}

// writeTrace writes the run's environment and spans as one JSON file.
func writeTrace(path string, env environment, spans []span) error {
	data, err := json.Marshal(struct {
		Env   environment `json:"env"`
		Spans []span      `json:"spans"`
	}{env, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
