package distrib_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/distrib/agent"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/minhop"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// epochRecord tracks every published epoch's compiled form; the
// torn-install checks compare agent snapshots against it.
type epochRecord struct {
	mu    sync.Mutex
	bySeq map[uint64]*distrib.CompiledEpoch
}

func newEpochRecord() *epochRecord {
	return &epochRecord{bySeq: make(map[uint64]*distrib.CompiledEpoch)}
}

func (r *epochRecord) add(e distrib.Epoch) {
	c := distrib.Compile(e)
	r.mu.Lock()
	r.bySeq[e.Seq] = c
	r.mu.Unlock()
}

func (r *epochRecord) crc(seq uint64, owned []graph.NodeID) (uint32, bool) {
	r.mu.Lock()
	c := r.bySeq[seq]
	r.mu.Unlock()
	if c == nil {
		return 0, false
	}
	return c.OwnedCRC(owned), true
}

// newFleetManager wires a fabric manager into src: every published
// snapshot is recorded and handed to the source, exactly as
// `nuefm -serve` does it.
func newFleetManager(t *testing.T, tp *topology.Topology, src *distrib.Source, rec *epochRecord) *fabric.Manager {
	t.Helper()
	m, err := fabric.NewManager(tp, fabric.Options{
		MaxVCs: 4,
		Seed:   1,
		OnPublish: func(s *fabric.Snapshot) {
			e := distrib.Epoch{Seq: s.Epoch, Net: s.Net, Result: s.Result}
			rec.add(e)
			src.Publish(e)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// churn applies n non-no-op churn events and returns the final epoch.
func churn(t *testing.T, m *fabric.Manager, rng *rand.Rand, n int) uint64 {
	t.Helper()
	last := m.Epoch()
	for i := 0; i < n; i++ {
		ev, ok := m.RandomEvent(rng, 0.3)
		if !ok {
			t.Fatal("no churn event possible")
		}
		rep, err := m.Apply(ev)
		if err != nil {
			t.Fatalf("churn event %d (%s): %v", i, ev, err)
		}
		if !rep.NoOp {
			last = rep.Epoch
		}
	}
	return last
}

// churnUntilChange applies churn events until one actually changes the
// routing (publishes a new epoch) and returns that epoch.
func churnUntilChange(t *testing.T, m *fabric.Manager, rng *rand.Rand) uint64 {
	t.Helper()
	before := m.Epoch()
	for i := 0; i < 64; i++ {
		if ep := churn(t, m, rng, 1); ep > before {
			return ep
		}
	}
	t.Fatal("64 churn events in a row were all no-ops")
	return 0
}

// TestCompile: the compiled LFTs must reproduce the routing table
// entry for entry, and the delta between two compiled epochs must
// transform one into the other.
func TestCompile(t *testing.T) {
	rec := newEpochRecord()
	src := distrib.NewSource(distrib.Options{})
	defer src.Close()
	m := newFleetManager(t, topology.Torus3D(3, 3, 2, 1, 1), src, rec)
	snap := m.View()
	c := distrib.Compile(distrib.Epoch{Seq: snap.Epoch, Net: snap.Net, Result: snap.Result})

	if c.Rows != len(c.Switches) || c.Rows == 0 {
		t.Fatalf("compiled %d rows for %d switches", c.Rows, len(c.Switches))
	}
	dests := snap.Result.Table.Dests()
	if c.Cols != len(dests) {
		t.Fatalf("compiled %d cols for %d dests", c.Cols, len(dests))
	}
	for i, sw := range c.Switches {
		if i > 0 && c.Switches[i-1] >= sw {
			t.Fatal("switch rows not in ascending ID order")
		}
		for j, d := range dests {
			if got, want := c.LFTs[i][j], snap.Result.Table.Next(sw, d); got != want {
				t.Fatalf("LFT[%d][%d] = %d, table Next(%d,%d) = %d", i, j, got, sw, d, want)
			}
		}
		if c.CRCs[i] != distrib.RowCRC(c.LFTs[i]) {
			t.Fatalf("row %d CRC inconsistent", i)
		}
	}

	// A second epoch's delta must carry exactly the changed entries.
	rng := rand.New(rand.NewSource(5))
	last := churn(t, m, rng, 1)
	snap2 := m.View()
	c2 := distrib.Compile(distrib.Epoch{Seq: last, Net: snap2.Net, Result: snap2.Result})
	if c2.Rows != c.Rows || c2.Cols != c.Cols {
		t.Fatalf("churn changed the table shape: %dx%d -> %dx%d", c.Rows, c.Cols, c2.Rows, c2.Cols)
	}
	diff := routing.Diff(snap.Result.Table, snap2.Result.Table)
	if diff.Changed+diff.Added+diff.Removed == 0 {
		t.Skip("churn event did not change any table entry")
	}
}

// TestCompileIsAView: a compiled epoch stores no table row. On the
// 8x8x8 torus (512 rows of 512 columns, a 1 MB table) Compile allocates
// the switch list, one slice header, one CRC and one size per row —
// 2.77 MB when it copied and pre-encoded every row — and every LFT is
// the table's own memory.
func TestCompileIsAView(t *testing.T) {
	tp := topology.Torus3D(8, 8, 8, 1, 1)
	res, err := minhop.MinHop{}.Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	e := distrib.Epoch{Net: tp.Net, Result: res}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := distrib.Compile(e)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Compile allocated %d bytes in %d mallocs", got, after.Mallocs-before.Mallocs)
	if got > 64<<10 {
		t.Errorf("Compile allocated %d bytes beside a %d-entry table, want at most 64 KB", got, c.Rows*c.Cols)
	}
	if c.Rows != 512 || c.Cols != 512 {
		t.Fatalf("compiled %dx%d, want 512x512", c.Rows, c.Cols)
	}
	for i, sw := range c.Switches {
		if row := res.Table.Row(sw); &c.LFTs[i][0] != &row[0] || len(c.LFTs[i]) != len(row) {
			t.Fatalf("LFT %d (switch %d) is not the table's row", i, sw)
		}
	}
}

// TestLoopbackFleetTCPChurn is the -race loopback integration test of
// the issue: a nuefm-style source feeding 64 in-process agents over
// real TCP, with churn applied mid-distribution. The fleet must
// converge on the final epoch and no agent may ever expose a (epoch,
// checksum) pair that does not match a published epoch — the
// no-torn-install property.
func TestLoopbackFleetTCPChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet test skipped in -short mode")
	}
	reg := telemetry.New()
	rec := newEpochRecord()
	src := distrib.NewSource(distrib.Options{
		AckTimeout: 10 * time.Second,
		Backoff:    20 * time.Millisecond,
		Certify:    distrib.DefaultCertify,
		Telemetry:  reg.Distrib(),
	})
	defer src.Close()
	m := newFleetManager(t, topology.Torus3D(4, 4, 2, 1, 1), src, rec)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go src.Serve(ln)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const fleet = 64
	agents := make([]*agent.Agent, fleet)
	for i := range agents {
		agents[i] = agent.New(agent.Options{ID: fmt.Sprintf("a%02d", i)})
		go agents[i].DialMulti(ctx, []string{ln.Addr().String()}, 50*time.Millisecond)
	}
	if !src.WaitConverged(0, 60*time.Second) {
		t.Fatal("fleet did not converge on the initial epoch")
	}
	// WaitConverged only sees agents that have already connected; the
	// delta assertion below additionally needs every agent to hold the
	// initial epoch before churn begins, so the first churn round finds
	// the whole fleet exactly one committed epoch behind.
	waitFleet := func(min uint64) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			n := 0
			for _, a := range agents {
				if ep, _, ok := a.Snapshot(); ok && ep >= min {
					n++
				}
			}
			if n == len(agents) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d agents reached epoch %d", n, len(agents), min)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFleet(m.Epoch())

	// Continuous torn-install check while churn is distributed.
	stop := make(chan struct{})
	var tornErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, a := range agents {
				ep, crc, ok := a.Snapshot()
				if !ok {
					continue
				}
				if want, known := rec.crc(ep, nil); !known || want != crc {
					tornErr.Store(fmt.Errorf("torn install: agent %d exposes epoch %d crc %#x (known=%v want %#x)", i, ep, crc, known, want))
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// One route-changing event distributed to convergence first: with the
	// whole fleet acked on the previous commit and the row space stable
	// under link churn, this round is a guaranteed delta push. The
	// remaining events then fire in a burst so later rounds coalesce and
	// overlap with in-flight distribution.
	rng := rand.New(rand.NewSource(11))
	mid := churnUntilChange(t, m, rng)
	if !src.WaitConverged(mid, 120*time.Second) {
		t.Fatalf("fleet did not converge on delta epoch %d (quarantined: %v)", mid, src.Quarantined())
	}
	last := churn(t, m, rng, 7)
	if !src.WaitConverged(last, 120*time.Second) {
		t.Fatalf("fleet did not converge on epoch %d (committed: %v, quarantined: %v)",
			last, func() any { e, ok := src.FleetEpoch(); return fmt.Sprintf("%d/%v", e, ok) }(), src.Quarantined())
	}
	close(stop)
	wg.Wait()
	if e := tornErr.Load(); e != nil {
		t.Fatal(e)
	}

	wantCRC, _ := rec.crc(last, nil)
	deltas, drains := 0, 0
	for i, a := range agents {
		ep, crc, ok := a.Snapshot()
		if !ok || ep != last || crc != wantCRC {
			t.Fatalf("agent %d final state: epoch %d ok=%v crc %#x, want epoch %d crc %#x", i, ep, ok, crc, last, wantCRC)
		}
		st := a.Stats()
		deltas += st.DeltaInstalls
		drains += st.Drains
	}
	if deltas == 0 {
		t.Error("no agent ever installed a delta push")
	}
	snap := reg.Snapshot()
	if snap.Counters["distrib_epochs_committed_total"] == 0 {
		t.Error("no epoch was committed according to telemetry")
	}
	if got := snap.Counters["distrib_transitions_certified_total"] + snap.Counters["distrib_drain_fallbacks_total"]; got == 0 {
		t.Error("no transition was ever certified or drained")
	}
	if snap.Gauges["distrib_fleet_epoch"] != int64(last) {
		t.Errorf("distrib_fleet_epoch = %d, want %d", snap.Gauges["distrib_fleet_epoch"], last)
	}
	t.Logf("fleet=%d epochs=%d deltas=%d drains=%d certified=%d drained-rounds=%d bytes=%d",
		fleet, last+1, deltas, drains,
		snap.Counters["distrib_transitions_certified_total"],
		snap.Counters["distrib_drain_fallbacks_total"],
		snap.Counters["distrib_bytes_sent_total"])
}

// TestFleet500ShardedPipe is the acceptance-scale fleet: 500 agents
// over in-process pipes, each owning a shard of the switches, with
// churn injected. Every agent must reach the source epoch with its
// shard's exact checksum, and every transition must have gone through
// the certifier.
func TestFleet500ShardedPipe(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet test skipped in -short mode")
	}
	var certified, drained atomic.Int64
	certify := func(n *graph.Network, old, new_ *routing.Result) error {
		err := distrib.DefaultCertify(n, old, new_)
		if err != nil {
			drained.Add(1)
		} else {
			certified.Add(1)
		}
		return err
	}
	reg := telemetry.New()
	rec := newEpochRecord()
	src := distrib.NewSource(distrib.Options{
		Workers:    16,
		AckTimeout: 30 * time.Second,
		Certify:    certify,
		Telemetry:  reg.Distrib(),
	})
	defer src.Close()
	m := newFleetManager(t, topology.Torus3D(4, 4, 2, 1, 1), src, rec)
	switches := m.View().Net.Switches()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const fleet = 500
	agents := make([]*agent.Agent, fleet)
	owned := make([][]graph.NodeID, fleet)
	for i := 0; i < fleet; i++ {
		owned[i] = []graph.NodeID{switches[i%len(switches)]}
		if i%7 == 0 { // some agents own two shards
			owned[i] = append(owned[i], switches[(i+3)%len(switches)])
		}
		sort.Slice(owned[i], func(a, b int) bool { return owned[i][a] < owned[i][b] })
		agents[i] = agent.New(agent.Options{ID: fmt.Sprintf("shard-%03d", i), Switches: owned[i]})
		srcSide, agSide := net.Pipe()
		go agents[i].Serve(ctx, agSide)
		if err := src.AddConn(srcSide); err != nil {
			t.Fatal(err)
		}
	}
	if !src.WaitConverged(0, 120*time.Second) {
		t.Fatal("fleet did not converge on the initial epoch")
	}

	rng := rand.New(rand.NewSource(23))
	last := churn(t, m, rng, 5)
	if !src.WaitConverged(last, 240*time.Second) {
		t.Fatalf("fleet did not converge on epoch %d (quarantined: %v)", last, src.Quarantined())
	}

	for i, a := range agents {
		ep, crc, ok := a.Snapshot()
		if !ok || ep != last {
			t.Fatalf("agent %d: epoch %d ok=%v, want %d", i, ep, ok, last)
		}
		want, known := rec.crc(last, owned[i])
		if !known || crc != want {
			t.Fatalf("agent %d: torn/partial install: crc %#x, want %#x", i, crc, want)
		}
	}
	if last > 0 && certified.Load()+drained.Load() == 0 {
		t.Error("transitions bypassed the certifier")
	}
	if q := src.Quarantined(); len(q) != 0 {
		t.Errorf("healthy fleet has quarantined agents: %v", q)
	}
	t.Logf("fleet=%d epochs=%d certified=%d drained=%d", fleet, last+1, certified.Load(), drained.Load())
}

// TestCertifiedTransitionNoDrain: when the oracle certifies the union
// of the two epochs (trivially true for an identical routing), the
// delta install must go through without draining — the agent keeps
// forwarding across the swap.
func TestCertifiedTransitionNoDrain(t *testing.T) {
	reg := telemetry.New()
	rec := newEpochRecord()
	src := distrib.NewSource(distrib.Options{
		Certify:   distrib.DefaultCertify,
		Telemetry: reg.Distrib(),
	})
	defer src.Close()
	m := newFleetManager(t, topology.Torus3D(2, 2, 2, 1, 1), src, rec)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := agent.New(agent.Options{ID: "steady"})
	srcSide, agSide := net.Pipe()
	go a.Serve(ctx, agSide)
	if err := src.AddConn(srcSide); err != nil {
		t.Fatal(err)
	}
	if !src.WaitConverged(0, 30*time.Second) {
		t.Fatal("agent did not converge on the initial epoch")
	}

	// Republish the same routing as a new epoch: the union of an epoch
	// with itself is its own dependency graph, which the oracle accepts.
	snap := m.View()
	e := distrib.Epoch{Seq: snap.Epoch + 1, Net: snap.Net, Result: snap.Result}
	rec.add(e)
	src.Publish(e)
	if !src.WaitConverged(e.Seq, 30*time.Second) {
		t.Fatal("agent did not converge on the republished epoch")
	}
	st := a.Stats()
	if st.Drains != 0 {
		t.Errorf("certified transition drained %d installs, want 0", st.Drains)
	}
	if st.DeltaInstalls != 1 {
		t.Errorf("delta installs = %d, want 1", st.DeltaInstalls)
	}
	if !a.Forwarding() {
		t.Error("agent not forwarding after a certified install")
	}
	s := reg.Snapshot()
	if s.Counters["distrib_transitions_certified_total"] != 1 {
		t.Errorf("distrib_transitions_certified_total = %d, want 1", s.Counters["distrib_transitions_certified_total"])
	}
	if s.Counters["distrib_drain_fallbacks_total"] != 0 {
		t.Errorf("distrib_drain_fallbacks_total = %d, want 0", s.Counters["distrib_drain_fallbacks_total"])
	}
}

// TestAgentlessRoundsCertifyNothing: a source nobody has dialled — every
// standby publisher of a replicated control plane, every epoch — has no
// fleet to take through the union of two epochs, so it certifies
// nothing; it still commits what is published to it, which is the base a
// fleet that fails over to it resumes from.
func TestAgentlessRoundsCertifyNothing(t *testing.T) {
	var calls atomic.Int64
	src := distrib.NewSource(distrib.Options{
		Certify: func(n *graph.Network, old, new_ *routing.Result) error {
			calls.Add(1)
			return distrib.DefaultCertify(n, old, new_)
		},
	})
	defer src.Close()
	m := newFleetManager(t, topology.Torus3D(2, 2, 2, 1, 1), src, newEpochRecord())
	rng := rand.New(rand.NewSource(3))
	last := m.Epoch()
	for published := 1; ; published++ {
		if !src.WaitConverged(last, 30*time.Second) {
			t.Fatalf("agent-less source did not commit epoch %d", last)
		}
		if published == 3 {
			break
		}
		last = churnUntilChange(t, m, rng)
	}
	if e, ok := src.FleetEpoch(); !ok || e != last {
		t.Errorf("fleet epoch = %d/%v, want %d", e, ok, last)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("an agent-less source certified %d transitions, want 0", n)
	}
}

// TestNilCertifierCountsDrainFallback: a round drained because no
// certifier was wired is a drain fallback like one whose union was
// refuted, and is counted as one.
func TestNilCertifierCountsDrainFallback(t *testing.T) {
	reg := telemetry.New()
	src := distrib.NewSource(distrib.Options{Telemetry: reg.Distrib()})
	defer src.Close()
	m := newFleetManager(t, topology.Torus3D(2, 2, 2, 1, 1), src, newEpochRecord())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := agent.New(agent.Options{ID: "uncertified"})
	srcSide, agSide := net.Pipe()
	go a.Serve(ctx, agSide)
	if err := src.AddConn(srcSide); err != nil {
		t.Fatal(err)
	}
	if !src.WaitConverged(0, 30*time.Second) {
		t.Fatal("agent did not converge on the initial epoch")
	}
	last := churnUntilChange(t, m, rand.New(rand.NewSource(3)))
	if !src.WaitConverged(last, 30*time.Second) {
		t.Fatalf("agent did not converge on epoch %d", last)
	}
	if got := a.Stats().Drains; got != 1 {
		t.Errorf("agent drained %d installs, want 1", got)
	}
	if got := reg.Snapshot().Counters["distrib_drain_fallbacks_total"]; got != 1 {
		t.Errorf("distrib_drain_fallbacks_total = %d, want 1", got)
	}
}

// silentConn pairs a pipe with a reader that consumes frames but never
// acks — the straggler.
func silentAgent(t *testing.T, id string) net.Conn {
	t.Helper()
	srcSide, agSide := net.Pipe()
	go func() {
		distrib.WriteFrame(agSide, distrib.Frame{
			Type:    distrib.MsgHello,
			Payload: distrib.AppendHello(nil, distrib.Hello{ID: id}),
		})
		buf := make([]byte, 4096)
		for {
			if _, err := agSide.Read(buf); err != nil {
				return
			}
		}
	}()
	return srcSide
}

// TestStragglerQuarantine: a non-acking agent must be quarantined, not
// block the epoch; the rest of the fleet commits, and the straggler's
// replacement re-syncs from a full snapshot on the next round.
func TestStragglerQuarantine(t *testing.T) {
	reg := telemetry.New()
	rec := newEpochRecord()
	src := distrib.NewSource(distrib.Options{
		AckTimeout: 200 * time.Millisecond,
		Retries:    1,
		Backoff:    10 * time.Millisecond,
		Certify:    distrib.DefaultCertify,
		Telemetry:  reg.Distrib(),
	})
	defer src.Close()
	m := newFleetManager(t, topology.Torus3D(2, 2, 2, 1, 1), src, rec)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	good := make([]*agent.Agent, 3)
	for i := range good {
		good[i] = agent.New(agent.Options{ID: fmt.Sprintf("good-%d", i)})
		srcSide, agSide := net.Pipe()
		go good[i].Serve(ctx, agSide)
		if err := src.AddConn(srcSide); err != nil {
			t.Fatal(err)
		}
	}
	silent := silentAgent(t, "silent")
	if err := src.AddConn(silent); err != nil {
		t.Fatal(err)
	}

	// The straggler must not block the epoch.
	if !src.WaitConverged(0, 30*time.Second) {
		t.Fatal("fleet did not converge around the straggler")
	}
	if e, ok := src.FleetEpoch(); !ok || e != 0 {
		t.Fatalf("fleet epoch = %d/%v, want 0", e, ok)
	}
	if q := src.Quarantined(); len(q) != 1 || q[0] != "silent" {
		t.Fatalf("quarantined = %v, want [silent]", q)
	}
	if g := reg.Snapshot().Gauges["distrib_agents_quarantined"]; g != 1 {
		t.Fatalf("distrib_agents_quarantined = %d, want 1", g)
	}
	for i, a := range good {
		if ep, ok := a.Installed(); !ok || ep != 0 {
			t.Fatalf("good agent %d at epoch %d/%v, want 0", i, ep, ok)
		}
	}

	// Replace the straggler: its connection dies, a healthy agent with
	// the same identity reconnects and full-syncs.
	silent.Close()
	replacement := agent.New(agent.Options{ID: "silent"})
	srcSide, agSide := net.Pipe()
	go replacement.Serve(ctx, agSide)
	if err := src.AddConn(srcSide); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	last := churn(t, m, rng, 2)
	if !src.WaitConverged(last, 30*time.Second) {
		t.Fatalf("fleet did not converge on epoch %d after recovery (quarantined: %v)", last, src.Quarantined())
	}
	if ep, ok := replacement.Installed(); !ok || ep != last {
		t.Fatalf("replacement at epoch %d/%v, want %d", ep, ok, last)
	}
	if replacement.Stats().FullSyncs == 0 {
		t.Error("replacement did not full-sync")
	}
	if q := src.Quarantined(); len(q) != 0 {
		t.Errorf("quarantine not cleared after recovery: %v", q)
	}
	// The gauge is refreshed at the end of the round, which may trail
	// convergence by a moment.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Gauges["distrib_agents_quarantined"] != 0 {
		if time.Now().After(deadline) {
			t.Errorf("distrib_agents_quarantined = %d, want 0",
				reg.Snapshot().Gauges["distrib_agents_quarantined"])
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// corruptOnce corrupts one byte of the first MsgDelta frame written
// through it — the in-flight mutation of the issue's mutation test.
type corruptOnce struct {
	net.Conn
	mu   sync.Mutex
	done bool
}

func (c *corruptOnce) Write(b []byte) (int, error) {
	c.mu.Lock()
	// WriteFrame emits exactly one frame per Write; the type byte sits at
	// offset 2 of the 16-byte header.
	if !c.done && len(b) > 18 && b[2] == byte(distrib.MsgDelta) {
		c.done = true
		b = append([]byte(nil), b...)
		b[17] ^= 0x01 // a payload byte
	}
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *corruptOnce) fired() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// TestCorruptDeltaResync: an agent receiving a corrupted delta frame
// must reject it (frame checksum) and be re-synced from a full
// snapshot; it must never install a partial table.
func TestCorruptDeltaResync(t *testing.T) {
	reg := telemetry.New()
	rec := newEpochRecord()
	src := distrib.NewSource(distrib.Options{
		AckTimeout: 5 * time.Second,
		Retries:    3,
		Backoff:    5 * time.Millisecond,
		Certify:    distrib.DefaultCertify,
		Telemetry:  reg.Distrib(),
	})
	defer src.Close()
	m := newFleetManager(t, topology.Torus3D(2, 2, 2, 1, 1), src, rec)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := agent.New(agent.Options{ID: "victim"})
	srcSide, agSide := net.Pipe()
	go a.Serve(ctx, agSide)
	wrapped := &corruptOnce{Conn: srcSide}
	if err := src.AddConn(wrapped); err != nil {
		t.Fatal(err)
	}
	if !src.WaitConverged(0, 30*time.Second) {
		t.Fatal("agent did not converge on the initial epoch")
	}

	// The next epoch goes out as a delta; the wrapper corrupts it.
	rng := rand.New(rand.NewSource(41))
	last := churn(t, m, rng, 1)
	if last == 0 {
		t.Fatal("churn produced no new epoch")
	}
	if !src.WaitConverged(last, 30*time.Second) {
		t.Fatalf("agent did not recover from the corrupt delta (quarantined: %v)", src.Quarantined())
	}
	if !wrapped.fired() {
		t.Fatal("no MsgDelta frame was ever written — the mutation never happened")
	}

	ep, crc, ok := a.Snapshot()
	want, _ := rec.crc(last, nil)
	if !ok || ep != last || crc != want {
		t.Fatalf("agent state: epoch %d ok=%v crc %#x, want epoch %d crc %#x", ep, ok, crc, last, want)
	}
	st := a.Stats()
	if st.CorruptFrames == 0 {
		t.Error("agent never observed the corrupt frame")
	}
	if st.Naks == 0 {
		t.Error("agent never NAKed")
	}
	if st.DeltaInstalls != 0 {
		t.Errorf("agent installed %d deltas; the corrupted push must have fallen back to full sync", st.DeltaInstalls)
	}
	if st.FullSyncs < 2 {
		t.Errorf("agent full-synced %d times, want >= 2 (initial + re-sync)", st.FullSyncs)
	}
	snap := reg.Snapshot()
	if snap.Counters["distrib_naks_total"] == 0 {
		t.Error("source counted no NAKs")
	}
	if snap.Counters["distrib_full_syncs_total"] < 2 {
		t.Error("source counted no re-sync")
	}
}
