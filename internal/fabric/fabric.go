// Package fabric is the online fabric manager: a long-running service
// that owns a mutable view of an interconnection network, accepts a
// stream of topology-churn events (link/switch failures and joins) and
// repairs the deadlock-free routing incrementally instead of recomputing
// it — the fail-in-place operating mode (Domke et al., SC'14) the Nue
// paper targets, run as a production subnet manager would.
//
// Only destinations whose forwarding trees traverse a changed channel are
// re-routed. The repair runs Nue's modified Dijkstra inside a complete
// CDG per virtual layer that is re-seeded with the surviving channel
// dependencies of the untouched routes, so the union of the old and the
// new configuration stays acyclic throughout the transition (the
// compatibility condition of UPR, Crespo et al., arXiv:2006.02332). When
// the seeded dependencies make a repair infeasible (the existence bound
// of Mendlovic & Matias, arXiv:2503.04583), the manager widens the repair
// to the layer, and as a last resort to the whole fabric.
//
// Readers never block on reconfigurations: forwarding state is published
// as epoch-versioned immutable snapshots behind an atomic pointer, so
// NextHop/Path see a consistent (network, table) pair at all times.
package fabric

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/mcast"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Options configures a Manager.
type Options struct {
	// MaxVCs is the virtual-channel budget handed to Nue (default 4).
	MaxVCs int
	// Seed drives Nue's partitioning and root tie-breaks.
	Seed int64
	// Verify runs the full routing verifier (connectivity + deadlock
	// freedom) on every published transition; failures trigger a full
	// recompute before the snapshot is published.
	Verify bool
	// PostCheck, when non-nil, runs after every routing transition —
	// the initial routing, every incremental repair and every full
	// recompute — on the to-be-published (network, result) pair, after
	// Verify (if enabled). A non-nil error vetoes the snapshot exactly
	// like a verifier failure: incremental transitions fall back to a
	// full recompute, and a failing full recompute aborts the event.
	// Wire the independent oracle here (internal/oracle.Certify) to
	// certify every epoch without fabric importing the checker.
	PostCheck func(*graph.Network, *routing.Result) error
	// FullRecompute disables incremental repair: every event re-routes
	// the entire fabric (the baseline the churn experiment compares
	// against).
	FullRecompute bool
	// Workers bounds the goroutines used for routing and for concurrent
	// per-layer repairs (0 = GOMAXPROCS). Repair output is identical for
	// every worker count.
	Workers int
	// Telemetry, when non-nil, receives per-event repair counters, the
	// repair-scope histogram and epoch publish latencies; the bundle's
	// registry is also handed to the embedded Nue engine. nil (the
	// default) records nothing.
	Telemetry *telemetry.FabricMetrics
	// EngineTelemetry optionally instruments the embedded Nue engine
	// (full routings and repair widenings); independent of Telemetry.
	EngineTelemetry *telemetry.EngineMetrics
	// OnPublish, when non-nil, is called synchronously with every
	// snapshot the manager publishes — the initial routing and each
	// applied event — in publication order, while the manager's event
	// lock is held. It is the distribution seam: hand the snapshot to a
	// queue (e.g. distrib.Source.Publish) and return quickly; it must
	// not call back into Apply.
	OnPublish func(*Snapshot)
	// Groups lists the multicast groups the manager maintains: every
	// published epoch carries a cast table for them, repaired on churn
	// (trees untouched by an event are kept verbatim when their
	// dependencies re-admit into the new union graph; the rest are
	// rebuilt or fall back to UBM legs). With PostCheck wired to the
	// oracle, each epoch is certified over the unicast+cast union.
	Groups []mcast.Group
	// McastTelemetry, when non-nil, receives the mcast_* counters of
	// every cast build the manager runs.
	McastTelemetry *telemetry.McastMetrics
}

// workers resolves Options.Workers to an effective pool size.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Snapshot is one immutable epoch of the fabric: a network view and the
// routing computed for it. Readers obtain it atomically and may use it
// for any length of time; reconfigurations publish fresh snapshots and
// never mutate old ones.
type Snapshot struct {
	// Epoch increases by one per applied (non-no-op) event.
	Epoch uint64
	// Net is the network as of this epoch.
	Net *graph.Network
	// Result is the deadlock-free routing of Net.
	Result *routing.Result
}

// Manager is the online fabric manager. Query methods (NextHop, Path,
// View, Epoch) are safe for arbitrary concurrency; Apply serializes
// reconfigurations internally.
//
// Internally the manager is a thin epoch-ownership shell over two
// separable pieces: a State (mutable topology bookkeeping + inverted
// indexes) and a Runner (the repair computation). The sharded control
// plane (internal/shard) composes the same two pieces under a replicated
// epoch log instead of a process-local atomic pointer; keeping the
// per-layer repair jobs identical on both paths is what makes sharded
// and monolithic tables digest-equal.
type Manager struct {
	opts Options

	snap atomic.Pointer[Snapshot]

	mu      sync.Mutex // guards everything below; serializes Apply
	st      *State
	run     *Runner
	metrics Metrics
}

// NewManager routes the topology from scratch and starts managing it.
// The topology is not retained; the manager works on private copies.
func NewManager(tp *topology.Topology, opts Options) (*Manager, error) {
	if opts.MaxVCs <= 0 {
		opts.MaxVCs = 4
	}
	m := &Manager{
		opts: opts,
		st:   NewState(tp.Net),
		run:  NewRunner(opts),
	}
	snap, err := InitialEpoch(m.st, m.run)
	if err != nil {
		return nil, err
	}
	m.snap.Store(snap)
	if opts.OnPublish != nil {
		opts.OnPublish(snap)
	}
	return m, nil
}

// InitialEpoch routes st's network from scratch, verifies/post-checks it
// per the runner's options, indexes st for it and returns it as epoch 0.
// Shared by the Manager and the sharded control plane so both publish the
// same first epoch for the same topology and options.
func InitialEpoch(st *State, run *Runner) (*Snapshot, error) {
	opts := run.Options()
	net := st.Working().Clone()
	res, err := run.RouteFull(net)
	if err != nil {
		return nil, fmt.Errorf("fabric: initial routing: %w", err)
	}
	if len(opts.Groups) > 0 {
		cast, _, err := mcast.Build(net, res, opts.Groups, mcast.Options{Telemetry: opts.McastTelemetry})
		if err != nil {
			return nil, fmt.Errorf("fabric: initial cast routing: %w", err)
		}
		res.Cast = cast
	}
	if opts.Verify {
		if _, err := verify.Check(net, res, nil); err != nil {
			return nil, fmt.Errorf("fabric: initial routing invalid: %w", err)
		}
	}
	if opts.PostCheck != nil {
		if err := opts.PostCheck(net, res); err != nil {
			return nil, fmt.Errorf("fabric: initial routing rejected by post-check: %w", err)
		}
	}
	st.RebuildIndex(res.Table)
	st.ReindexCast(res.Cast)
	return &Snapshot{Epoch: 0, Net: net, Result: res}, nil
}

// destinations returns the fabric's destination set: every terminal, or
// every switch when the network has none. Disconnected members keep
// their table columns (cleared) so the set is stable across churn.
func destinations(net *graph.Network) []graph.NodeID {
	if net.NumTerminals() > 0 {
		return net.Terminals()
	}
	return net.Switches()
}

// View returns the current snapshot. The result is immutable and remains
// valid (and internally consistent) for as long as the caller holds it.
func (m *Manager) View() *Snapshot { return m.snap.Load() }

// Epoch returns the current configuration version.
func (m *Manager) Epoch() uint64 { return m.snap.Load().Epoch }

// NextHop returns the forwarding channel at node n toward destination d
// in the current epoch (graph.NoChannel when none).
func (m *Manager) NextHop(n, d graph.NodeID) graph.ChannelID {
	return m.snap.Load().Result.Table.Next(n, d)
}

// Path walks the current epoch's tables from src to dst.
func (m *Manager) Path(src, dst graph.NodeID) ([]graph.ChannelID, error) {
	snap := m.snap.Load()
	return routing.Walk(snap.Net, snap.Result, src, dst, nil)
}

// Metrics returns a copy of the lifetime aggregate metrics.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.metrics
}
