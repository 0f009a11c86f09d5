package workload

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

func testTerminals(t testing.TB) []graph.NodeID {
	t.Helper()
	tp := topology.Ring(8, 2)
	terms := tp.Net.Terminals()
	if len(terms) != 16 {
		t.Fatalf("fixture: %d terminals", len(terms))
	}
	return terms
}

// allPatterns enumerates every generator the package ships, so the
// determinism sweep can never silently skip a new one.
func allPatterns() []Pattern {
	return []Pattern{
		Uniform{},
		Hotspot{Skew: 1.2},
		Hotspot{Skew: 0},
		Incast{Fanin: 4},
		Permutation{},
		Shift{},
		Shift{Offset: 3},
	}
}

// TestGeneratorDeterminism: same seed -> bit-identical flow stream, for
// every pattern and for both arrival processes; a different seed must
// produce a different stream (vacuity control).
func TestGeneratorDeterminism(t *testing.T) {
	terms := testTerminals(t)
	for _, p := range allPatterns() {
		for _, arr := range []Arrival{Closed{}, Poisson{MeanGap: 16}} {
			a := Generate(terms, Single(p, 4096), 500, arr, 42)
			b := Generate(terms, Single(p, 4096), 500, arr, 42)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: same seed produced different flows", p.Name(), arr.Name())
			}
			if len(a) != 500 {
				t.Errorf("%s/%s: generated %d flows, want 500", p.Name(), arr.Name(), len(a))
			}
			c := Generate(terms, Single(p, 4096), 500, arr, 43)
			if _, ok := p.(Shift); !ok && reflect.DeepEqual(a, c) {
				t.Errorf("%s/%s: seeds 42 and 43 produced identical flows", p.Name(), arr.Name())
			}
		}
	}
}

// TestFlowsWellFormed: every generated flow has src != dst, terminals
// from the set, positive bytes, and non-decreasing starts (open-loop
// arrivals are monotone).
func TestFlowsWellFormed(t *testing.T) {
	terms := testTerminals(t)
	inSet := map[graph.NodeID]bool{}
	for _, n := range terms {
		inSet[n] = true
	}
	for _, p := range allPatterns() {
		flows := Generate(terms, Single(p, 1024), 300, Poisson{MeanGap: 8}, 7)
		last := int64(0)
		for i, f := range flows {
			if f.Src == f.Dst {
				t.Fatalf("%s: flow %d has src == dst == %d", p.Name(), i, f.Src)
			}
			if !inSet[f.Src] || !inSet[f.Dst] {
				t.Fatalf("%s: flow %d endpoints outside terminal set", p.Name(), i)
			}
			if f.Bytes <= 0 {
				t.Fatalf("%s: flow %d bytes %d", p.Name(), i, f.Bytes)
			}
			if f.Start < last {
				t.Fatalf("%s: flow %d start %d < previous %d", p.Name(), i, f.Start, last)
			}
			last = f.Start
		}
	}
}

// TestIncastStructure: each group of Fanin consecutive flows shares one
// victim destination.
func TestIncastStructure(t *testing.T) {
	terms := testTerminals(t)
	const fanin = 4
	flows := Generate(terms, Single(Incast{Fanin: fanin}, 1024), 64, Closed{}, 3)
	for g := 0; g+fanin <= len(flows); g += fanin {
		for i := 1; i < fanin; i++ {
			if flows[g+i].Dst != flows[g].Dst {
				t.Fatalf("group %d: flow %d targets %d, group victim is %d",
					g/fanin, i, flows[g+i].Dst, flows[g].Dst)
			}
		}
	}
}

// TestHotspotSkew: with a strong Zipf exponent, the hottest destination
// must receive several times its uniform share.
func TestHotspotSkew(t *testing.T) {
	terms := testTerminals(t)
	flows := Generate(terms, Single(Hotspot{Skew: 1.5}, 1024), 4000, Closed{}, 11)
	counts := map[graph.NodeID]int{}
	for _, f := range flows {
		counts[f.Dst]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniform := len(flows) / len(terms)
	if max < 3*uniform {
		t.Errorf("hottest destination got %d flows; want >= 3x the uniform share %d", max, uniform)
	}
}

// TestPermutationFixedPartner: every source always sends to the same
// partner and no terminal is its own partner.
func TestPermutationFixedPartner(t *testing.T) {
	terms := testTerminals(t)
	flows := Generate(terms, Single(Permutation{}, 1024), 200, Closed{}, 9)
	partner := map[graph.NodeID]graph.NodeID{}
	for _, f := range flows {
		if p, ok := partner[f.Src]; ok && p != f.Dst {
			t.Fatalf("source %d has partners %d and %d", f.Src, p, f.Dst)
		}
		partner[f.Src] = f.Dst
	}
}

// TestMixInterleaving: a weighted two-tenant mix respects the weights
// approximately, tags tenants correctly, and each tenant's pair
// subsequence is independent of the other tenant's presence (streams
// are seeded per-tenant).
func TestMixInterleaving(t *testing.T) {
	terms := testTerminals(t)
	mix := Mix{Tenants: []TenantSpec{
		{Name: "bulk", Weight: 3, Pattern: Uniform{}, Bytes: 1 << 20},
		{Name: "rpc", Weight: 1, Pattern: Incast{Fanin: 2}, Bytes: 4096},
	}}
	flows := Generate(terms, mix, 4000, Closed{}, 5)
	count := [2]int{}
	for _, f := range flows {
		if f.Tenant > 1 {
			t.Fatalf("tenant index %d out of range", f.Tenant)
		}
		count[f.Tenant]++
		want := mix.Tenants[f.Tenant].Bytes
		if f.Bytes != want {
			t.Fatalf("tenant %d flow has %d bytes, want %d", f.Tenant, f.Bytes, want)
		}
	}
	ratio := float64(count[0]) / float64(count[1])
	if ratio < 2.4 || ratio > 3.6 {
		t.Errorf("weight-3:1 mix produced ratio %.2f (%d vs %d)", ratio, count[0], count[1])
	}
}

// TestTraceRoundTrip: generate -> encode -> decode -> bit-identical
// flows, and re-encoding the decoded flows reproduces the identical
// byte stream.
func TestTraceRoundTrip(t *testing.T) {
	terms := testTerminals(t)
	mix := Mix{Tenants: []TenantSpec{
		{Name: "a", Weight: 2, Pattern: Hotspot{Skew: 1.1}, Bytes: 777},
		{Name: "b", Weight: 1, Pattern: Shift{}, Bytes: 1 << 30},
	}}
	flows := Generate(terms, mix, 1000, Poisson{MeanGap: 5}, 21)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, flows); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	encoded := append([]byte(nil), buf.Bytes()...)

	got, err := ReadTrace(bytes.NewReader(encoded))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !reflect.DeepEqual(flows, got) {
		t.Fatal("decoded flows differ from the generated stream")
	}

	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, got); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(encoded, buf2.Bytes()) {
		t.Fatal("re-encoded trace bytes differ from the original encoding")
	}
}

// TestTraceCorruption: a flipped byte anywhere in the payload must be
// rejected by the CRC (or the header validation), never silently
// decoded.
func TestTraceCorruption(t *testing.T) {
	terms := testTerminals(t)
	flows := Generate(terms, Single(Uniform{}, 512), 50, Closed{}, 2)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, flows); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		bad := append([]byte(nil), clean...)
		bad[rng.Intn(len(bad))] ^= 0x40
		if got, err := ReadTrace(bytes.NewReader(bad)); err == nil && reflect.DeepEqual(got, flows) {
			t.Fatalf("trial %d: corrupted trace decoded to the clean flows without error", trial)
		}
	}
	// Truncation must error too.
	if _, err := ReadTrace(bytes.NewReader(clean[:len(clean)-5])); err == nil {
		t.Fatal("truncated trace decoded without error")
	}
}

// TestEmptyTrace: zero flows round-trip.
func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d flows from an empty trace", len(got))
	}
}

// TestTraceCountBomb: a 16-byte file, the magic and a count of 2^31 with
// no record and no checksum, used to presize 2^31 flows and end the
// process with a fatal out-of-memory error no recover can catch. It must
// be refused, and refusing it must cost what a small file costs.
func TestTraceCountBomb(t *testing.T) {
	bomb := countBomb()
	if _, err := ReadTrace(bytes.NewReader(bomb)); err == nil {
		t.Fatal("a header without records decoded without error")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ReadTrace(bytes.NewReader(bomb))
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 4<<20 {
		t.Fatalf("refusing the 16-byte header allocated %d bytes per call", got)
	}
}

// countBomb is a trace header declaring 2^31 flows and nothing else.
func countBomb() []byte {
	return binary.LittleEndian.AppendUint64(traceMagic[:], 1<<31)
}
