// Package telemetry is a zero-dependency, low-overhead runtime
// instrumentation layer for the routing engine, the fabric manager and
// the flit simulator: atomic counters, gauges (with high-water-mark
// updates), fixed-bucket histograms, and a bounded structured event ring.
//
// Design contract (see DESIGN.md §10):
//
//   - Every handle is nil-safe: all methods on a nil *Counter, *Gauge,
//     *Histogram, *Ring or *Registry are no-ops, so instrumented code
//     carries a single pointer that is nil when telemetry is off and
//     never branches beyond the receiver check. Routing output is
//     bit-identical with telemetry on and off (telemetry only observes).
//   - All handles are safe for concurrent use; hot paths accumulate
//     locally and publish once per phase where possible.
//   - Exposition is pull-based: Snapshot() for tests and JSON dumps,
//     WritePrometheus() for a /metrics endpoint.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v    atomic.Int64
	name string
}

// Add increments the counter by d. No-op on a nil receiver.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value with a monotonic-max update for
// high-water marks.
type Gauge struct {
	v    atomic.Int64
	name string
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d (may be negative). No-op on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// SetMax raises the gauge to v if v is larger (lock-free high-water
// mark). No-op on a nil receiver.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistogramBuckets is the number of exponential buckets: bucket i counts
// observations v with 2^(i-1) < v <= 2^i (bucket 0: v <= 1), the last
// bucket is a catch-all. Powers of two cover 1 ns .. ~34 s latencies and
// 1 .. 2^30 count-valued observations alike.
const HistogramBuckets = 36

// Histogram is a fixed-bucket exponential histogram over non-negative
// int64 observations (nanoseconds, destination counts, queue depths).
type Histogram struct {
	name    string
	buckets [HistogramBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     Gauge
}

// bucketIndex returns the bucket for observation v.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	i := 0
	// Smallest i with v <= 2^i.
	for b := int64(1); b < v && i < HistogramBuckets-1; b <<= 1 {
		i++
	}
	return i
}

// Observe records one observation. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.max.SetMax(v)
}

// ObserveSince records the elapsed nanoseconds since start. No-op on a
// nil receiver (and then never calls time.Now).
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Nanoseconds())
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observation (0 on a nil receiver).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Event is one structured entry of the bounded event ring.
type Event struct {
	// Seq is a global monotonically increasing sequence number; rings
	// overwrite oldest-first, so gaps in Seq reveal dropped events.
	Seq uint64 `json:"seq"`
	// UnixNanos is the wall-clock emission time.
	UnixNanos int64 `json:"unix_nanos"`
	// Kind names the event (e.g. "engine_layer", "sim_deadlock").
	Kind string `json:"kind"`
	// Fields carries the event's integer payload.
	Fields map[string]int64 `json:"fields"`
}

// Ring is a bounded, concurrency-safe ring of structured events. When
// full, the oldest event is overwritten.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever emitted
	size int
}

// Emit appends an event, overwriting the oldest when the ring is full.
// The fields map is retained; callers must not reuse it. No-op on a nil
// receiver; the fields map is built before the call, so a caller that
// must allocate nothing with telemetry off (DESIGN §10) checks for a nil
// ring first.
func (r *Ring) Emit(kind string, fields map[string]int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e := Event{Seq: r.next, UnixNanos: time.Now().UnixNano(), Kind: kind, Fields: fields}
	if len(r.buf) < r.size {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next%uint64(r.size)] = e
	}
	r.next++
	r.mu.Unlock()
}

// Events returns the buffered events in emission order (nil on a nil
// receiver). The result is a copy.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < r.size {
		out = append(out, r.buf...)
	} else {
		at := r.next % uint64(r.size)
		out = append(out, r.buf[at:]...)
		out = append(out, r.buf[:at]...)
	}
	return out
}

// Dropped returns how many events were overwritten (0 on nil).
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < r.size {
		return 0
	}
	return r.next - uint64(r.size)
}

// Registry owns a namespace of metrics. The zero value is not usable;
// call New. A nil *Registry hands out nil handles, so a single nil check
// at setup time turns the entire instrumentation off.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	ring     *Ring
}

// DefaultRingSize bounds the structured event ring.
const DefaultRingSize = 1024

// New returns an empty registry with a DefaultRingSize event ring.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		ring:     &Ring{size: DefaultRingSize},
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op handle) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// Ring returns the registry's event ring (nil on a nil registry).
func (r *Registry) Ring() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	// Buckets maps upper bound (2^i) to cumulative count, sparse (only
	// non-empty buckets), Prometheus "le" semantics.
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot is a consistent-enough point-in-time copy of a registry: each
// value is read atomically (the set of values is not frozen as one
// transaction, which is the standard contract of scrape-based metrics).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Events     []Event                      `json:"events,omitempty"`
	// DroppedEvents counts ring overwrites.
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
}

// Snapshot exports all metrics. On a nil registry it returns an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()
	for _, c := range counters {
		s.Counters[c.name] = c.Load()
	}
	for _, g := range gauges {
		s.Gauges[g.name] = g.Load()
	}
	for _, h := range hists {
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Max: h.Max()}
		cum := int64(0)
		for i := 0; i < HistogramBuckets; i++ {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			cum += n
			if hs.Buckets == nil {
				hs.Buckets = map[string]int64{}
			}
			hs.Buckets[bucketLabel(i)] = cum
		}
		s.Histograms[h.name] = hs
	}
	s.Events = r.ring.Events()
	s.DroppedEvents = r.ring.Dropped()
	return s
}

// sortedNames returns the keys of a map in lexical order (deterministic
// exposition).
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
