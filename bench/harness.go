package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// vcs is the virtual-channel budget of every workload.
const vcs = 4

// engineSeeds bounds the seeds the benchmark draws for the routing engine
// to 1..engineSeeds. Each was routed, verified and certified on every
// workload's fabric (and every destination sample of cold-torus4k) when
// the benchmark was written. Arbitrary 63-bit seeds would not do: about
// one in three hundred makes today's engine emit tables that verify.Check
// refuses as cyclic (README.md, "What a seed may change"), and a
// workload's ops must not fail.
const engineSeeds = 64

// opRand is the generator op i of a run draws its inputs from: the same
// seed and index give the same draws. Warm-up ops (i < 0) draw the same
// whatever the seed, so set-up time does not depend on what they drew.
func opRand(seed int64, i int) *rand.Rand {
	if i < 0 {
		seed = 0
	}
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

// sizing holds the inputs that differ between the full benchmark and the
// smoke run of bench_test.go.
type sizing struct {
	torus    [3]int // fabric of cold-torus512, churn-torus512 and traffic-torus512
	big      [3]int // fabric of cold-torus4k
	bigDests int    // its destination sample
	flows    int    // flows per traffic pattern
	maxOps   int    // caps countOps and warm-ups (0: no cap)
}

var (
	fullSize  = sizing{torus: [3]int{8, 8, 8}, big: [3]int{16, 16, 16}, bigDests: 32, flows: 100_000}
	smokeSize = sizing{torus: [3]int{4, 4, 4}, big: [3]int{4, 4, 4}, bigDests: 16, flows: 5_000, maxOps: 20}
)

// ops caps an op count at the sizing's limit.
func (s sizing) ops(n int) int {
	if s.maxOps > 0 && n > s.maxOps {
		return s.maxOps
	}
	return n
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64 // how long the timed ops of one run last
	trace   bool
	size    sizing
	setups  int    // set-up repetitions of an untraced run; setup_s is their median
	outDir  string // where trace files go
}

// instance is one set-up workload, ready to run ops.
type instance interface {
	// draw makes the inputs of op i from the run's seed and i; the warm-up
	// ops of set-up draw with i < 0. It is the workload generator's work,
	// so it is neither timed nor counted as the op's allocation.
	draw(i int) error
	// op runs the op just drawn and returns its latency. With replay it
	// then repeats the layer calls the op made, on the same inputs, as
	// replay spans outside the measured interval.
	op(replay bool) (time.Duration, error)
	// counts returns the cumulative counters of the traced instance: the
	// telemetry registry's and the benchmark's own. Keys ending in _ns
	// are busy times; the rest are counts.
	counts() map[string]float64
	// checkpoint fingerprints the outputs produced so far; it must
	// repeat exactly for a seed and an op count.
	checkpoint() string
	// finish runs the end-of-run checks.
	finish() error
	close()
}

// metricValue is one reported metric.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`
	Exact   bool    `json:"exact,omitempty"`
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Trace      bool                   `json:"trace"`
	Seconds    float64                `json:"seconds"`
	CountOps   int                    `json:"count_ops"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Errors     []string               `json:"errors,omitempty"`
	Checkpoint string                 `json:"checkpoint"`
	Metrics    map[string]metricValue `json:"metrics"`
}

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) set(d metricDef, value float64, samples int) {
	r.Metrics[d.Name] = metricValue{Value: value, Unit: d.Unit, Samples: samples, Better: d.Better, Bound: d.Bound, Exact: d.Exact}
}

// setUp sets the workload up reps times, keeps the last instance and
// returns every repetition's duration in seconds. Every repetition must
// reach the same checkpoint: set-up is part of what a seed determines.
func setUp(w *workloadDef, c *runConfig, reg *telemetry.Registry, tr *tracer, reps int, r *runResult) (instance, []float64, error) {
	var inst instance
	var secs []float64
	first := ""
	for rep := 0; rep < reps; rep++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		tr.setOp(-(rep + 1))
		start := time.Now()
		var err error
		if inst, err = w.setup(c, reg, tr); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if cp := inst.checkpoint(); rep == 0 {
			first = cp
		} else if cp != first {
			r.fail("set-up repetition %d reached checkpoint %s, the first %s", rep, cp, first)
		}
	}
	return inst, secs, nil
}

// phase is one timed loop over an instance.
type phase struct {
	latMs      []float64          // latency of every successful op
	allocMB    float64            // heap allocated inside the ops of an untraced phase, per op
	base       map[string]float64 // counts before the first op
	window     map[string]float64 // counts after countOps ops
	checkpoint string             // checkpoint after countOps ops
}

// timed runs ops on inst until budget seconds have passed, and at least
// countOps of them. A traced phase (tr != nil) replays layer calls after
// each of the first countOps ops; the replays count against the budget.
func timed(inst instance, budget float64, tr *tracer, r *runResult) phase {
	var p phase
	countOps, attempted := r.CountOps, r.Attempted
	runtime.GC()
	if tr != nil {
		p.base = inst.counts()
	}
	var mem runtime.MemStats
	var allocated uint64
	start := time.Now()
	for i := 0; i < countOps || time.Since(start).Seconds() < budget; i++ {
		tr.setOp(i)
		err := inst.draw(i)
		var lat time.Duration
		if err == nil {
			// The readings stop the world, but outside the op's stopwatch.
			var before uint64
			if tr == nil {
				runtime.ReadMemStats(&mem)
				before = mem.TotalAlloc
			}
			lat, err = inst.op(tr != nil && i < countOps)
			if tr == nil {
				runtime.ReadMemStats(&mem)
				allocated += mem.TotalAlloc - before
			}
		}
		r.Attempted++
		if err != nil {
			r.Failed++
			r.fail("op %d: %v", i, err)
		} else {
			p.latMs = append(p.latMs, float64(lat.Nanoseconds())/1e6)
		}
		if i == countOps-1 {
			p.checkpoint = inst.checkpoint()
			if tr != nil {
				p.window = inst.counts()
			}
		}
	}
	p.allocMB = float64(allocated) / 1e6 / float64(max(r.Attempted-attempted, 1))
	if err := inst.finish(); err != nil {
		r.fail("end of run: %v", err)
	}
	return p
}

// runWorkload makes one run of w: the untraced run that yields the
// end-to-end metrics, or the traced run that yields the per-layer ones.
func runWorkload(w *workloadDef, c *runConfig, env environment) (*runResult, error) {
	r := &runResult{
		Workload: w.Name, Seed: c.seed, Trace: c.trace, Seconds: c.seconds,
		CountOps: c.size.ops(w.countOps), Correct: true, Metrics: make(map[string]metricValue),
	}
	if c.trace {
		return r, runTraced(w, c, env, r)
	}
	inst, setupS, err := setUp(w, c, nil, nil, c.setups, r)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	p := timed(inst, c.seconds, nil, r)
	r.Checkpoint = p.checkpoint
	checkGolden(c, r)

	var sumMs float64
	for _, l := range p.latMs {
		sumMs += l
	}
	ops := len(p.latMs)
	r.set(defOf("setup_s"), median(setupS), len(setupS))
	r.set(defOf("op_p50_ms"), median(p.latMs), ops)
	r.set(defOf("alloc_mb_per_op"), p.allocMB, r.Attempted)
	if sumMs > 0 {
		r.set(defOf("ops_per_s"), float64(ops)/(sumMs/1e3), ops)
	}
	return r, nil
}

// ratios are the per-layer metrics that divide one windowed count by
// another. "ops" is the window's op count.
var ratios = []struct {
	metric, num, den string
	scale            float64
}{
	{"core.allocs_per_route", "core.route_mallocs", "core.routes", 1},
	{"shard.local_job_ratio", "shard.local_jobs", "shard.jobs", 1},
	{"distrib.bytes_per_epoch", "distrib.bytes", "ops", 1},
	{"distrib.delta_permille", "distrib.delta_permille_sum", "distrib.delta_pushes", 1},
	{"distrib.prepare_ms", "distrib.prepare_ns", "distrib.prepares", 1e-6},
	{"flowsim.events_per_s", "flowsim.events", "flowsim.run_ns", 1e9},
}

// runTraced makes the traced run: a plain instance first, for the
// untraced op latency the overhead ratio needs, then an instance with a
// telemetry registry attached, spans on and replays after the first
// countOps ops. Each gets half the run's seconds.
func runTraced(w *workloadDef, c *runConfig, env environment, r *runResult) error {
	plain, _, err := setUp(w, c, nil, nil, 1, r)
	if err != nil {
		return err
	}
	a := timed(plain, c.seconds/2, nil, r)
	plain.close()
	runtime.GC()

	reg := telemetry.New()
	tr := newTracer(w.Name)
	traced, _, err := setUp(w, c, reg, tr, 1, r)
	if err != nil {
		return err
	}
	defer traced.close()
	b := timed(traced, c.seconds/2, tr, r)
	r.Checkpoint = b.checkpoint
	if a.checkpoint != b.checkpoint {
		r.fail("traced run reached checkpoint %s, untraced %s: telemetry changed the outputs", b.checkpoint, a.checkpoint)
	}
	checkGolden(c, r)

	spans := tr.snapshot()
	dur, self := durations(spans), selfTimes(spans)
	countOps := float64(r.CountOps)
	delta := func(key string) float64 {
		if key == "ops" {
			return countOps
		}
		return b.window[key] - b.base[key]
	}
	for _, d := range perLayer {
		r.set(d, 0, 0)
		if d.Unit == "ms" {
			stem := strings.TrimSuffix(d.Name, "_ms")
			if v := opValues(perOp(spans, dur, stem)); len(v) > 0 {
				r.set(d, median(v), len(v))
			} else if _, ok := b.window[stem+"_ns"]; ok {
				r.set(d, delta(stem+"_ns")/countOps/1e6, r.CountOps)
			}
		} else if _, ok := b.window[d.Name]; ok {
			r.set(d, delta(d.Name), r.CountOps)
		}
	}
	for _, q := range ratios {
		if den := delta(q.den); den > 0 {
			r.set(defOf(q.metric), delta(q.num)/den*q.scale, r.CountOps)
		}
	}

	// fabric.repair_ms is derived: what is left of Plane.Apply's self time
	// (its span minus the callbacks it made) once the replayed cost of the
	// calls it makes to other layers is taken off.
	if apply := perOp(spans, self, "shard.apply"); len(apply) > 0 {
		var replayed []map[int]float64
		for _, name := range []string{"verify.check", "oracle.seam_transition", "graph.clone", "shard.append"} {
			replayed = append(replayed, perOp(spans, dur, name))
		}
		var repair []float64
		for op := 0; op < r.CountOps; op++ {
			v, ok := apply[op]
			if !ok {
				continue
			}
			for _, m := range replayed {
				v -= m[op]
			}
			repair = append(repair, math.Max(v, 0))
		}
		r.set(defOf("fabric.repair_ms"), median(repair), len(repair))
	}
	if v, ok := percentile(b.latMs, 0.95); ok {
		r.set(defOf("bench.op_p95_ms"), v, len(b.latMs))
	}
	if m := median(a.latMs); m > 0 {
		r.set(defOf("telemetry.overhead_ratio"), median(b.latMs)/m, len(b.latMs))
	}
	return writeTrace(filepath.Join(c.outDir, "trace-"+w.Name+".json"), env, spans)
}

// defOf returns the declaration of a metric the program sets by name.
func defOf(name string) metricDef {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if d.Name == name {
				return d
			}
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}
