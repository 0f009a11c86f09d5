package distrib_test

import (
	"context"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/distrib/agent"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// fullPushDigest connects a raw agent owning the given switches (nil =
// all) that never acked anything, so the source answers with a full
// snapshot, and returns FNV-64a over every byte of that push — begin,
// one MsgLFT per owned row, prepare — with the frame count.
func fullPushDigest(t *testing.T, src *distrib.Source, owned []graph.NodeID) (sum uint64, frames int) {
	t.Helper()
	srcSide, agSide := net.Pipe()
	defer agSide.Close()
	go distrib.WriteFrame(agSide, distrib.Frame{
		Type:    distrib.MsgHello,
		Payload: distrib.AppendHello(nil, distrib.Hello{ID: "golden", Switches: owned}),
	})
	if err := src.AddConn(srcSide); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	r := io.TeeReader(agSide, h)
	for {
		agSide.SetReadDeadline(time.Now().Add(30 * time.Second))
		f, err := distrib.ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("frame %d of the full push: %v", frames, err)
		}
		frames++
		if f.Type == distrib.MsgPrepare {
			return h.Sum64(), frames
		}
	}
}

// TestFullSyncWireGolden pins every byte a full push writes. The
// constants were recorded while a compiled epoch still stored each row
// pre-encoded; a source that encodes rows from the table at push time
// must write the same frames. The owned list of the second push names a
// terminal, a node beyond the fabric and a negative ID, all of which own
// no row and are skipped.
func TestFullSyncWireGolden(t *testing.T) {
	m, err := fabric.NewManager(topology.Torus3D(3, 3, 2, 1, 1), fabric.Options{MaxVCs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := m.View()
	sws := snap.Net.Switches()
	terminal := graph.NoNode
	for _, n := range snap.Net.Nodes() {
		if snap.Net.IsTerminal(n) {
			terminal = n
			break
		}
	}
	for _, tc := range []struct {
		name   string
		owned  []graph.NodeID
		sum    uint64
		frames int
	}{
		{"all", nil, 0x46ce6542908ef885, len(sws) + 2},
		{"owned", []graph.NodeID{sws[5], terminal, sws[0], graph.NodeID(snap.Net.NumNodes() + 3), -2, sws[11]}, 0xd05249a4d358c2d0, 3 + 2},
	} {
		// The push is never acked; Close waits out one ack timeout.
		src := distrib.NewSource(distrib.Options{AckTimeout: 500 * time.Millisecond})
		src.Publish(distrib.Epoch{Seq: 7, Net: snap.Net, Result: snap.Result})
		sum, frames := fullPushDigest(t, src, tc.owned)
		src.Close()
		if frames != tc.frames {
			t.Errorf("%s: full push wrote %d frames, want %d", tc.name, frames, tc.frames)
		}
		if sum != tc.sum {
			t.Errorf("%s: full push digest %#x, want %#x", tc.name, sum, tc.sum)
		}
	}
}

// TestDeltaPermilleGolden pins the delta-compression samples of a fixed
// six-event trace: their denominator is the full-snapshot size of the
// pushed rows, which the source takes from per-row byte counts instead
// of stored payloads. Two agents (one owning everything, one a shard)
// converge after every event, so each event is one delta push per agent.
func TestDeltaPermilleGolden(t *testing.T) {
	reg := telemetry.New()
	rec := newEpochRecord()
	src := distrib.NewSource(distrib.Options{Certify: distrib.DefaultCertify, Telemetry: reg.Distrib()})
	defer src.Close()
	m := newFleetManager(t, topology.Torus3D(3, 3, 2, 1, 1), src, rec)
	sws := m.View().Net.Switches()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, o := range []agent.Options{{ID: "all"}, {ID: "shard", Switches: []graph.NodeID{sws[2], sws[9], sws[16]}}} {
		srcSide, agSide := net.Pipe()
		go agent.New(o).Serve(ctx, agSide)
		if err := src.AddConn(srcSide); err != nil {
			t.Fatal(err)
		}
	}
	if !src.WaitConverged(0, 30*time.Second) {
		t.Fatal("fleet did not converge on the initial epoch")
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 6; i++ {
		ep := churnUntilChange(t, m, rng)
		if !src.WaitConverged(ep, 30*time.Second) {
			t.Fatalf("fleet did not converge on epoch %d", ep)
		}
	}
	s := reg.Snapshot()
	pm := s.Histograms["distrib_delta_permille"]
	if pm.Count != 12 || pm.Sum != 2898 {
		t.Errorf("distrib_delta_permille: %d samples summing to %d, want 12 and 2898", pm.Count, pm.Sum)
	}
	if got := s.Counters["distrib_bytes_sent_total"]; got != 2880 {
		t.Errorf("distrib_bytes_sent_total = %d, want 2880", got)
	}
	if got := s.Counters["distrib_full_syncs_total"]; got != 2 {
		t.Errorf("distrib_full_syncs_total = %d, want 2 (the two initial syncs)", got)
	}
}
