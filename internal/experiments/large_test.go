package experiments

import (
	"os"
	"testing"

	"repro/internal/engines"
	"repro/internal/oracle"
	"repro/internal/routing/dor"
	"repro/internal/topology"
)

// TestSampleSwitchesDeterministic pins the destination sampler the
// large tier shares between nuebench and certification: a
// bounded stride sample, stable across calls, always a subset of the
// switch set.
func TestSampleSwitchesDeterministic(t *testing.T) {
	tp := topology.Torus3D(6, 6, 6, 1, 1)
	all := tp.Net.Switches()
	isSwitch := make(map[int64]bool, len(all))
	for _, s := range all {
		isSwitch[int64(s)] = true
	}
	for _, n := range []int{0, 1, 7, 50, len(all), len(all) + 10} {
		a := SampleSwitches(tp.Net, n)
		b := SampleSwitches(tp.Net, n)
		if len(a) != len(b) {
			t.Fatalf("n=%d: sample size unstable: %d vs %d", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: sample not deterministic at %d", n, i)
			}
			if !isSwitch[int64(a[i])] {
				t.Fatalf("n=%d: sampled node %d is not a switch", n, a[i])
			}
		}
		if n <= 0 || n >= len(all) {
			if len(a) != len(all) {
				t.Fatalf("n=%d: want full switch set (%d), got %d", n, len(all), len(a))
			}
		} else if len(a) == 0 || len(a) > n {
			t.Fatalf("n=%d: sample size %d out of bounds", n, len(a))
		}
	}
}

// certifySources bounds the oracle walk of the large tier: walking all
// (source, destination) pairs of a 32k-switch fabric is quadratic; a
// stride sample of sources against the full routed destination set
// still exercises every table shard the sampled sources cross.
const certifySources = 24

// TestLargeTierCertified routes every class of the large tier and has
// the independent oracle certify the result from first principles —
// bounded trials per class via oracle.Options.Sources. The tier takes
// minutes on one core, so the test runs only in the CI large-tier job
// (NUE_LARGE=1); TestLargeTierNegativeControl below keeps the same
// bounded certification honest on every plain `go test`.
func TestLargeTierCertified(t *testing.T) {
	if os.Getenv("NUE_LARGE") == "" {
		t.Skip("large tier: set NUE_LARGE=1 (CI large-tier job) to run")
	}
	for _, cl := range LargeClasses() {
		cl := cl
		t.Run(cl.Name, func(t *testing.T) {
			tp := cl.Build()
			dests := SampleSwitches(tp.Net, 256)
			res, err := engines.Nue(1, 0).Route(tp.Net, dests, 4)
			if err != nil {
				t.Fatalf("route failed: %v", err)
			}
			cert, err := oracle.Certify(tp.Net, res, oracle.Options{
				Sources: SampleSwitches(tp.Net, certifySources),
				MaxVCs:  4,
			})
			if err != nil {
				t.Fatalf("oracle refutes the %s routing: %v", cl.Name, err)
			}
			if !cert.Connected || !cert.DeadlockFree {
				t.Fatalf("certificate incomplete: %+v", cert)
			}
			if cert.Pairs == 0 {
				t.Fatal("oracle walked zero pairs; the bounded certification is vacuous")
			}
		})
	}
}

// TestLargeTierNegativeControl pins the teeth of the bounded
// certification path: plain dimension-ordered routing on a 1-VC ring —
// a textbook cyclic configuration — must be refuted by the exact same
// Certify call shape the large tier uses (explicit stride-sampled
// Sources). If source bounding ever blinds the oracle to dependency
// cycles, this fails before the expensive tier ever runs.
func TestLargeTierNegativeControl(t *testing.T) {
	tp := topology.Torus3D(8, 1, 1, 1, 1)
	res, err := (dor.Engine{Meta: tp.Torus}).Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatalf("DOR route failed: %v", err)
	}
	_, err = oracle.Certify(tp.Net, res, oracle.Options{
		Sources: SampleSwitches(tp.Net, certifySources),
		MaxVCs:  1,
	})
	if err == nil {
		t.Fatal("bounded oracle certified dateline-free DOR on a ring; the control is vacuous")
	}
	if _, ok := err.(*oracle.CycleError); !ok {
		t.Fatalf("want a *oracle.CycleError witness, got %T: %v", err, err)
	}
}
