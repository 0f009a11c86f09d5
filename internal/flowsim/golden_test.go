package flowsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/workload"
)

// digest folds every Result field into one FNV-64a value: floats by
// their bit patterns, so two results digest equal only when they are
// bit-identical.
func digest(r Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	i := func(v int64) { u(uint64(v)) }
	f := func(v float64) { u(math.Float64bits(v)) }
	fs := func(vs []float64) {
		i(int64(len(vs)))
		for _, v := range vs {
			f(v)
		}
	}
	f(r.Makespan)
	i(int64(r.FlowsTotal))
	i(int64(r.FlowsSkipped))
	i(int64(r.FlowsFinished))
	i(int64(r.FlowsUnfinished))
	i(r.Events)
	i(r.Recomputes)
	i(r.DeliveredBytes)
	f(r.AggThroughput)
	i(b2i(r.TimedOut))
	i(int64(len(r.PerTenant)))
	for _, t := range r.PerTenant {
		i(int64(t.Tenant))
		h.Write([]byte(t.Name))
		i(int64(t.Flows))
		i(int64(t.Finished))
		i(t.DeliveredBytes)
		f(t.Throughput)
		f(t.FCTAvg)
		f(t.FCTP50)
		f(t.FCTP99)
		f(t.FCTMax)
	}
	fs(r.LinkBytes)
	fs(r.LinkUtil)
	f(r.AvgLinkUtilization)
	f(r.MaxLinkUtilization)
	return h.Sum64()
}

// goldenRun runs one case and holds its Result to the digest recorded
// under name.
func goldenRun(t *testing.T, name string, net *graph.Network, res *routing.Result, flows []workload.Flow, cfg Config) (*sim, Result) {
	t.Helper()
	s := newSim(net, flows, cfg)
	r, err := s.run(res)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := digest(r); got != goldens[name] {
		t.Fatalf("%q: %#016x, (recorded %#016x)", name, got, goldens[name])
	}
	return s, r
}

// goldenMix is a two-tenant mix: bulk transfers beside small incasts.
var goldenMix = workload.Mix{Tenants: []workload.TenantSpec{
	{Name: "bulk", Weight: 3, Pattern: workload.Uniform{}, Bytes: 1 << 16},
	{Name: "incast", Weight: 1, Pattern: workload.Incast{Fanin: 4}, Bytes: 4096},
}}

// goldenMixes are the golden workloads. gap is the mean gap of the
// open-loop arrivals, chosen so that a few dozen flows are active at a
// time; cut is a MaxTicks that lands mid-run for either arrival process.
var goldenMixes = []struct {
	name string
	mix  workload.Mix
	gap  float64
	cut  float64
}{
	{"uniform", workload.Single(workload.Uniform{}, 4096), 512, 900_000},
	{"hotspot", workload.Single(workload.Hotspot{Skew: 1.2}, 4096), 512, 2_000_000},
	{"incast", workload.Single(workload.Incast{}, 4096), 512, 900_000},
	{"permutation", workload.Single(workload.Permutation{}, 4096), 512, 1_000_000},
	{"mix", goldenMix, 4096, 9_000_000},
}

const goldenFlows = 3000

// TestRunGoldens pins every Result field of 60 runs — five mixes, a
// closed batch and open-loop arrivals, exact and coalesced recomputes,
// uncut and cut mid-run — to digests recorded before the link buckets
// became state kept across recomputes.
func TestRunGoldens(t *testing.T) {
	tp := topology.Torus3D(4, 4, 1, 2, 1)
	res := bfsTable(tp.Net)
	for _, m := range goldenMixes {
		for _, a := range []struct {
			name    string
			arrival workload.Arrival
		}{{"closed", workload.Closed{}}, {"poisson", workload.Poisson{MeanGap: m.gap}}} {
			flows := workload.Generate(tp.Net.Terminals(), m.mix, goldenFlows, a.arrival, 20)
			for _, q := range []int64{0, 4096, 1 << 18} {
				for _, cut := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/q%d", m.name, a.name, q)
					cfg := Config{Quantum: q, TenantNames: m.mix.TenantNames()}
					if cut {
						name += "/cut"
						cfg.MaxTicks = m.cut
					}
					_, r := goldenRun(t, name, tp.Net, res, flows, cfg)
					if cut != r.TimedOut || (cut && (r.FlowsFinished == 0 || r.FlowsUnfinished == 0)) {
						t.Fatalf("%s: cut does not land mid-run: timedOut=%v finished=%d unfinished=%d",
							name, r.TimedOut, r.FlowsFinished, r.FlowsUnfinished)
					}
				}
			}
		}
	}
}
