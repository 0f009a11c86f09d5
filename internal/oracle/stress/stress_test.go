package stress_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/oracle/stress"
)

// TestCrossCheck200Seeds is the corpus cross-check: 200 seeded trials,
// each generating a topology, routing it with every applicable engine
// and requiring (a) the oracle's and the verifier's verdicts to agree
// on every (topology, engine, VC-count) triple, (b) every engine whose
// deadlock-freedom claim covers the budget to certify, and (c) Nue to
// route everything. Run() folds each of those into Trial.Failures with
// a replayable seed, so the assertion is simply that no trial failed.
func TestCrossCheck200Seeds(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed corpus is not a -short test")
	}
	const seeds = 200
	var (
		mu       sync.Mutex
		failures []string
		trials   []*stress.Trial
	)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for s := int64(0); s < seeds; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tr := stress.Run(stress.Config{Seed: seed, Workers: 1})
			mu.Lock()
			trials = append(trials, tr)
			failures = append(failures, tr.Failures...)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	// The corpus must exercise both sides of the differential: certified
	// claiming engines and refuted negative baselines with witnesses.
	certified, refuted, witnesses := 0, 0, 0
	for _, tr := range trials {
		for _, o := range tr.Outcomes {
			switch {
			case o.Certified():
				certified++
			case o.Refuted != "":
				refuted++
				if o.Witness != "" {
					witnesses++
				}
			}
		}
	}
	t.Logf("corpus: %d certified, %d refuted (%d with cycle witnesses)", certified, refuted, witnesses)
	if certified == 0 || refuted == 0 || witnesses == 0 {
		t.Fatalf("vacuous corpus: certified=%d refuted=%d witnesses=%d — the differential never saw both verdicts",
			certified, refuted, witnesses)
	}
}

// TestTrialDeterminism pins the replay contract: the same Config must
// reproduce the same topology, the same outcomes and the same verdicts.
func TestTrialDeterminism(t *testing.T) {
	for s := int64(0); s < int64(len(stress.Classes())); s++ {
		a := stress.Run(stress.Config{Seed: s, Workers: 1})
		b := stress.Run(stress.Config{Seed: s, Workers: 1})
		if a.Topology != b.Topology || a.VCs != b.VCs || len(a.Outcomes) != len(b.Outcomes) {
			t.Fatalf("seed %d not deterministic: (%s, %d VCs, %d engines) vs (%s, %d VCs, %d engines)",
				s, a.Topology, a.VCs, len(a.Outcomes), b.Topology, b.VCs, len(b.Outcomes))
		}
		for i := range a.Outcomes {
			if a.Outcomes[i].Refuted != b.Outcomes[i].Refuted || a.Outcomes[i].RouteErr != b.Outcomes[i].RouteErr {
				t.Fatalf("seed %d engine %s: verdicts differ between identical runs", s, a.Outcomes[i].Engine)
			}
		}
	}
}

// TestRingNegativeControl pins the harness's teeth: plain DOR on a
// ring with one virtual channel must be refuted with a concrete cycle
// witness, while Nue on the same instance certifies. A harness in
// which the oracle waves DOR through is vacuous and must fail loudly.
func TestRingNegativeControl(t *testing.T) {
	tr := stress.Run(stress.Config{Seed: 7, Class: stress.ClassRing, VCs: 1, Workers: 1})
	if tr.Failed() {
		t.Fatalf("ring trial hard-failed: %s", strings.Join(tr.Failures, "\n"))
	}
	var dor, nue *stress.Outcome
	for i := range tr.Outcomes {
		switch tr.Outcomes[i].Engine {
		case "dor":
			dor = &tr.Outcomes[i]
		case "nue":
			nue = &tr.Outcomes[i]
		}
	}
	if dor == nil || nue == nil {
		t.Fatalf("ring roster missing dor or nue: %+v", tr.Outcomes)
	}
	if !nue.Certified() {
		t.Fatalf("nue must certify on the ring: route=%q refuted=%q", nue.RouteErr, nue.Refuted)
	}
	if dor.Refuted == "" || dor.Witness == "" {
		t.Fatalf("plain DOR on a 1-VC ring must be cycle-refuted with a witness, got refuted=%q witness=%q",
			dor.Refuted, dor.Witness)
	}
}

// TestChurnTrial runs the fabric manager under the oracle post-check
// through a random event schedule: every published epoch must carry an
// independent certificate.
func TestChurnTrial(t *testing.T) {
	tr := stress.Run(stress.Config{Seed: 3, Class: stress.ClassTorus, VCs: 2, Engine: "nue", Churn: 12, Workers: 2})
	if tr.Failed() {
		t.Fatalf("churn trial failed: %s", strings.Join(tr.Failures, "\n"))
	}
	if tr.Churn == nil || tr.Churn.Events == 0 {
		t.Fatalf("churn schedule did not run: %+v", tr.Churn)
	}
	if tr.Churn.Certified == 0 {
		t.Fatal("no epoch was oracle-certified during churn")
	}
}

// TestDecideReplayString pins the -decide replay flag.
func TestDecideReplayString(t *testing.T) {
	cfg := stress.Config{Seed: 5, Decide: true}
	want := "go run ./cmd/nueverify -trials 1 -seed 5 -decide"
	if got := cfg.Replay(); got != want {
		t.Fatalf("replay = %q, want %q", got, want)
	}
}

// TestDecideCrossCheck200Seeds is the existence-frontier consistency
// corpus: 200 seeded trials with the decision procedure enabled. The
// consistency contract, folded into Trial.Failures by runDecide:
//
//   - wherever ANY engine produced an oracle-certified single-lane
//     table, the procedure must answer "routable" (a refutation there
//     is a "contradiction" hard failure), and
//   - wherever the procedure proves routability, SOME engine must
//     certify ("engine-bug" otherwise — that is the frontier's point),
//
// so every refutation classifies as engine-bug or genuinely
// unroutable, never silently. The vacuity check requires the corpus to
// exercise both verdicts.
func TestDecideCrossCheck200Seeds(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed corpus is not a -short test")
	}
	const seeds = 200
	var (
		mu       sync.Mutex
		failures []string
		trials   []*stress.Trial
	)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for s := int64(0); s < seeds; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tr := stress.Run(stress.Config{Seed: seed, Decide: true, Workers: 1})
			mu.Lock()
			trials = append(trials, tr)
			failures = append(failures, tr.Failures...)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	counts := map[string]int{}
	for _, tr := range trials {
		if tr.Decide == nil {
			t.Fatalf("trial %s: decision procedure did not run", tr.Topology)
		}
		counts[tr.Decide.Classification]++
	}
	t.Logf("decide corpus: %v", counts)
	if counts["routed"] == 0 || counts["unroutable"] == 0 {
		t.Fatalf("vacuous decide corpus: %v — both verdicts must appear", counts)
	}
	for _, bad := range []string{"engine-bug", "contradiction", "ambiguous", "undecided"} {
		if counts[bad] != 0 {
			t.Fatalf("%d trials classified %q: %v", counts[bad], bad, counts)
		}
	}
}

// TestRandomRegular checks the pairing-model generator: every switch
// has exactly the requested degree (counting parallel links) and the
// network is connected with terminals attached.
func TestRandomRegular(t *testing.T) {
	rng := newRand(11)
	tp := stress.RandomRegular(rng, 10, 3, 1)
	net := tp.Net
	for _, s := range net.Switches() {
		deg := 0
		for _, c := range net.Out(s) {
			if net.IsSwitch(net.Channel(c).To) {
				deg++
			}
		}
		if deg != 3 {
			t.Fatalf("switch %d has switch-degree %d, want 3", s, deg)
		}
	}
	if net.NumTerminals() != 10 {
		t.Fatalf("want 10 terminals, got %d", net.NumTerminals())
	}
}

// TestReplayString pins the replay command format the CI failure
// artifacts rely on.
func TestReplayString(t *testing.T) {
	cfg := stress.Config{Seed: 42, Class: stress.ClassRing, VCs: 1, Engine: "dor", Churn: 5}
	want := "go run ./cmd/nueverify -trials 1 -seed 42 -topo ring -vcs 1 -engine dor -churn 5"
	if got := cfg.Replay(); got != want {
		t.Fatalf("replay = %q, want %q", got, want)
	}
	if got := (stress.Config{Seed: 9}).Replay(); got != "go run ./cmd/nueverify -trials 1 -seed 9" {
		t.Fatalf("minimal replay = %q", got)
	}
}

// TestGenerateClasses sanity-checks each family: connected instances
// with the metadata their engines need.
func TestGenerateClasses(t *testing.T) {
	for _, class := range stress.Classes() {
		for s := int64(0); s < 5; s++ {
			tp := stress.Generate(class, newRand(s))
			if tp.Net.NumNodes() == 0 {
				t.Fatalf("%s seed %d: empty network", class, s)
			}
			if class == stress.ClassRing && tp.Torus == nil {
				t.Fatalf("%s seed %d: ring must carry torus metadata for the DOR baselines", class, s)
			}
			if class == stress.ClassFatTree && tp.Tree == nil {
				t.Fatalf("%s seed %d: fat tree lost its tree metadata", class, s)
			}
			if (class == stress.ClassFullMesh || class == stress.ClassDFGroup) && tp.Mesh == nil {
				t.Fatalf("%s seed %d: mesh family lost its rank metadata", class, s)
			}
			if class == stress.ClassOneWay && tp.Net.Symmetric() {
				t.Fatalf("%s seed %d: one-way family generated a symmetric network", class, s)
			}
		}
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
