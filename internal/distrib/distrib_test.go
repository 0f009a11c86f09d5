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

// TestConcurrentWaiters: WaitConverged callers wait on the same
// notification as the distributor, so a wake-up has to reach all of them.
// Two goroutines wait for the last of six epochs from the start, while
// the test publishes the epochs one by one and waits for each: the
// distributor must commit every one (a wake-up that reached a waiter and
// not the distributor would leave an epoch unsent), and both early waits
// must end true.
func TestConcurrentWaiters(t *testing.T) {
	rec := newEpochRecord()
	src := distrib.NewSource(distrib.Options{Certify: distrib.DefaultCertify})
	defer src.Close()
	m := newFleetManager(t, topology.Torus3D(2, 2, 2, 1, 1), src, rec)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agents := make([]*agent.Agent, 4)
	for i := range agents {
		agents[i] = agent.New(agent.Options{ID: fmt.Sprintf("a%d", i)})
		srcSide, agSide := net.Pipe()
		go agents[i].Serve(ctx, agSide)
		if err := src.AddConn(srcSide); err != nil {
			t.Fatal(err)
		}
	}
	if !src.WaitConverged(0, 30*time.Second) {
		t.Fatal("the fleet did not converge on the initial epoch")
	}

	const epochs = 6
	last := m.Epoch() + epochs
	var waits [2]atomic.Bool
	var wg sync.WaitGroup
	for i := range waits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			waits[i].Store(src.WaitConverged(last, 30*time.Second))
		}()
	}
	rng := rand.New(rand.NewSource(5))
	for want := m.Epoch() + 1; want <= last; want++ {
		if got := churnUntilChange(t, m, rng); got != want {
			t.Fatalf("churn published epoch %d, want %d", got, want)
		}
		if !src.WaitConverged(want, 30*time.Second) {
			t.Fatalf("epoch %d was not committed to the fleet", want)
		}
	}
	wg.Wait()
	for i := range waits {
		if !waits[i].Load() {
			t.Errorf("waiter %d: WaitConverged(%d) = false", i, last)
		}
	}
	want, _ := rec.crc(last, nil)
	for i, a := range agents {
		if ep, crc, ok := a.Snapshot(); !ok || ep != last || crc != want {
			t.Errorf("agent %d: snapshot (%d, %#x, %v), want (%d, %#x, true)", i, ep, crc, ok, last, want)
		}
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

	// The straggler must not block the epoch, but the fleet does not
	// hold it while the straggler holds nothing.
	if src.WaitConverged(0, 30*time.Second) {
		t.Fatal("WaitConverged reports a quarantined straggler as holding epoch 0")
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
// through it once armed — a full sync's entries travel in MsgDelta
// frames too, so it is armed after the initial sync.
type corruptOnce struct {
	net.Conn
	mu    sync.Mutex
	armed bool
	done  bool
}

func (c *corruptOnce) arm() {
	c.mu.Lock()
	c.armed = true
	c.mu.Unlock()
}

func (c *corruptOnce) Write(b []byte) (int, error) {
	c.mu.Lock()
	// WriteFrame emits exactly one frame per Write; the type byte sits at
	// offset 2 of the 16-byte header.
	if c.armed && !c.done && len(b) > 18 && b[2] == byte(distrib.MsgDelta) {
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
	wrapped.arm()
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

// TestDeltaRoundAllocs pins what one delta round allocates, source and
// agent together, once the connection's buffers have grown: the source
// counts the changed entries before it writes them and builds the push in
// buffers it keeps per connection, and the agent decodes into a buffer of
// its own and stages copy-on-write, copying the 24 rows the delta touches
// instead of all 216 into rows it kept from the delta before. Both ends
// read frames into a buffer kept per connection. The source also keeps
// its ack timer, owned rows, prepare checksums and round state, and the
// agent its staging, its staged headers and its ack buffers, so what is
// left is mostly the compiled epoch. A round of this test allocated
// 605,720 bytes before the copy-on-write staging, 60,704 before the
// recycled rows and frame buffers, 25,584 before the kept push and
// staging scratch, and 7,824 with it; the bound is that plus 25%.
func TestDeltaRoundAllocs(t *testing.T) {
	tp := topology.Torus3D(6, 6, 6, 1, 1)
	res, err := minhop.MinHop{}.Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two tables that differ in every entry of 24 rows: the rounds swap
	// between them.
	other := res.Table.Clone(nil)
	for _, sw := range tp.Net.Switches()[:24] {
		for _, d := range other.Dests() {
			if out := tp.Net.Out(sw); other.Next(sw, d) == out[0] {
				other.Set(sw, d, out[1])
			} else {
				other.Set(sw, d, out[0])
			}
		}
	}
	results := []*routing.Result{res, {Table: other, VCs: 1}}

	src := distrib.NewSource(distrib.Options{})
	defer src.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := agent.New(agent.Options{ID: "pinned"})
	srcSide, agSide := net.Pipe()
	go a.Serve(ctx, agSide)
	if err := src.AddConn(srcSide); err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	round := func() {
		e := distrib.Epoch{Seq: seq, Net: tp.Net, Result: results[seq%2]}
		src.Publish(e)
		if !src.WaitConverged(seq, 30*time.Second) {
			t.Fatalf("epoch %d did not converge", seq)
		}
		seq++
	}
	for seq < 4 { // a full sync, then deltas until the buffers have grown
		round()
	}
	bytes, _ := perRound(9, round)
	t.Logf("a delta round allocated %d bytes", bytes)
	if bytes > 9780 {
		t.Errorf("a delta round allocated %d bytes, want at most 9,780", bytes)
	}
	if st := a.Stats(); st.FullSyncs != 1 || st.DeltaInstalls != int(seq)-1 {
		t.Errorf("%d full syncs and %d delta installs over %d epochs, want 1 and %d", st.FullSyncs, st.DeltaInstalls, seq, seq-1)
	}
}

// perRound runs f runs times and returns the median bytes and mallocs a
// run allocated.
func perRound(runs int, f func()) (bytes, mallocs uint64) {
	var b, m []uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		b = append(b, after.TotalAlloc-before.TotalAlloc)
		m = append(m, after.Mallocs-before.Mallocs)
	}
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
	return b[runs/2], m[runs/2]
}

// TestRepeatedSwitchOwnsOneRow: an agent whose Hello names a switch
// twice owns that switch's row once, and installs it. The source used to
// send the row twice, the agent refused the push as out of order, and
// the agent stayed quarantined with nothing installed while the fleet
// counted as converged.
func TestRepeatedSwitchOwnsOneRow(t *testing.T) {
	rec := newEpochRecord()
	src := distrib.NewSource(distrib.Options{Certify: distrib.DefaultCertify, Backoff: time.Millisecond})
	defer src.Close()
	m := newFleetManager(t, topology.Torus3D(3, 3, 2, 1, 1), src, rec)
	s1 := m.View().Net.Switches()[1]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := agent.New(agent.Options{ID: "twice", Switches: []graph.NodeID{s1, s1}})
	srcSide, agSide := net.Pipe()
	go a.Serve(ctx, agSide)
	if err := src.AddConn(srcSide); err != nil {
		t.Fatal(err)
	}
	installed := func(ep uint64) {
		t.Helper()
		if !src.WaitConverged(ep, 30*time.Second) {
			t.Fatalf("epoch %d did not converge", ep)
		}
		got, crc, ok := a.Snapshot()
		want, _ := rec.crc(ep, []graph.NodeID{s1})
		if !ok || got != ep || crc != want {
			t.Fatalf("agent holds (%d, %#x, %v), want (%d, %#x, true); quarantined: %v", got, crc, ok, ep, want, src.Quarantined())
		}
	}
	installed(0)
	installed(churnUntilChange(t, m, rand.New(rand.NewSource(3))))
	if st := a.Stats(); st.FullSyncs != 1 || st.DeltaInstalls != 1 || st.Naks != 0 {
		t.Errorf("stats %+v, want one full sync, one delta install and no NAK", st)
	}
}

// deltaCounter counts the MsgDelta frames written through it (one frame
// per Write, its type at offset 2 of the header).
type deltaCounter struct {
	net.Conn
	frames atomic.Int64
}

func (c *deltaCounter) Write(b []byte) (int, error) {
	if len(b) > 2 && b[2] == byte(distrib.MsgDelta) {
		c.frames.Add(1)
	}
	return c.Conn.Write(b)
}

// TestPushesSpanFrames: a push of more than 2^20 entries is cut into
// MsgDelta frames of at most 2^20 each, a full sync and a delta alike,
// and the agent installs both exactly. The table is synthetic: a
// 1025-switch ring's 1025x1025 entries (2^20 + 2,049), every one of which
// the second epoch changes.
func TestPushesSpanFrames(t *testing.T) {
	tp := topology.Ring(1025, 1)
	epoch := func(seq uint64, bump graph.ChannelID) *distrib.CompiledEpoch {
		tbl := routing.NewTable(tp.Net, tp.Net.Terminals())
		for r, sw := range tp.Net.Switches() {
			for col, d := range tbl.Dests() {
				tbl.Set(sw, d, graph.ChannelID((r+col)%7)+bump)
			}
		}
		e := distrib.Epoch{Seq: seq, Net: tp.Net, Result: &routing.Result{Table: tbl, VCs: 1}}
		return distrib.Compile(e)
	}
	src := distrib.NewSource(distrib.Options{AckTimeout: time.Minute})
	defer src.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := agent.New(agent.Options{ID: "big"})
	srcSide, agSide := net.Pipe()
	go a.Serve(ctx, agSide)
	counted := &deltaCounter{Conn: srcSide}
	if err := src.AddConn(counted); err != nil {
		t.Fatal(err)
	}
	for i, c := range []*distrib.CompiledEpoch{epoch(1, 0), epoch(2, 1)} {
		if entries := c.Rows * c.Cols; entries <= 1<<20 {
			t.Fatalf("%d entries fit one frame", entries)
		}
		src.Publish(c.Epoch)
		if !src.WaitConverged(c.Seq, time.Minute) {
			t.Fatalf("epoch %d did not converge", c.Seq)
		}
		if ep, crc, ok := a.Snapshot(); !ok || ep != c.Seq || crc != c.OwnedCRC(nil) {
			t.Fatalf("agent holds (%d, %#x, %v), want (%d, %#x, true)", ep, crc, ok, c.Seq, c.OwnedCRC(nil))
		}
		if got, want := counted.frames.Load(), int64(2*(i+1)); got != want {
			t.Fatalf("after epoch %d: %d MsgDelta frames, want %d", c.Seq, got, want)
		}
	}
	if st := a.Stats(); st.FullSyncs != 1 || st.DeltaInstalls != 1 {
		t.Errorf("stats %+v, want one full sync and one delta install", st)
	}
}
