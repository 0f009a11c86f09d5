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
// of Mendlovic & Matias, arXiv:2503.04583), core.RepairLayer widens the
// repair to the layer, and the manager, as a last resort, to the whole
// fabric.
//
// Readers never block on reconfigurations: forwarding state is published
// as epoch-versioned immutable snapshots behind an atomic pointer, and
// View is the reader API: the Snapshot it returns is a consistent
// (network, table) pair that stays valid for as long as the reader holds
// it (walk it with routing.Walk).
package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/routing"
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
	// PostCheck, when non-nil, runs on every routing transition — the
	// initial routing, every incremental repair and every full
	// recompute — on the to-be-published (network, result) pair. It runs
	// alongside Verify (if enabled), possibly on another goroutine than
	// the caller of Apply, never concurrently with itself, and is joined
	// before Apply returns; it may therefore see a result Verify is
	// about to reject, and must not write what it is handed. With one
	// worker, Verify runs first. A non-nil error vetoes the snapshot
	// exactly like a verifier failure: incremental transitions fall back
	// to a full recompute, and a failing full recompute aborts the
	// event. Wire the independent oracle here (internal/oracle.Certify)
	// to certify every epoch without fabric importing the checker.
	PostCheck func(*graph.Network, *routing.Result) error
	// FullRecompute disables incremental repair: every event re-routes
	// the entire fabric (the baseline the churn experiment compares
	// against).
	FullRecompute bool
	// Workers bounds the goroutines used for routing, for an epoch's
	// per-layer repairs, which all run through one par.For of this size,
	// and for running Verify beside PostCheck (0 = GOMAXPROCS, as
	// par.Workers resolves it). Repair output is identical for every
	// worker count.
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
// The manager is the only owner of the epoch: the State (mutable
// topology bookkeeping), the runner (the repair computation and its
// escape-root cache), the published snapshot pointer and the telemetry
// bundle live here and nowhere else, and ApplyGated is the only code
// that runs the epoch transaction. Each epoch's record is the
// EventReport it returns; the telemetry counters are sums of those
// reports. The replicated control plane (internal/shard) composes a
// Manager — literally: it holds one and passes in what is its own, a
// pre-publication Gate (quorum commit, which can veto an epoch but not
// replace it) — so replicated and monolithic tables are digest-equal
// because they come out of the same code and the same certification, not
// out of two copies kept alike.
type Manager struct {
	opts Options

	snap atomic.Pointer[Snapshot]

	mu  sync.Mutex // guards everything below; serializes Apply
	st  *State
	run *runner
}

// NewManager routes the topology from scratch and starts managing it.
// The topology is not retained; the manager works on private copies.
func NewManager(tp *topology.Topology, opts Options) (*Manager, error) {
	return NewGatedManager(tp, opts, nil)
}

// NewGatedManager is NewManager with the initial epoch passed through
// gate (zero Candidate.Event, Snap.Epoch 0) before it is stored and
// OnPublish fires; a gate error aborts construction. A nil gate
// publishes directly.
func NewGatedManager(tp *topology.Topology, opts Options, gate Gate) (*Manager, error) {
	if opts.MaxVCs <= 0 {
		opts.MaxVCs = 4
	}
	m := &Manager{
		opts: opts,
		st:   NewState(tp.Net),
		run:  newRunner(opts),
	}
	snap, err := m.initialEpoch()
	if err != nil {
		return nil, err
	}
	if gate != nil {
		if err := gate(&Candidate{Snap: snap, m: m}); err != nil {
			return nil, fmt.Errorf("fabric: initial epoch: %w", err)
		}
	}
	m.snap.Store(snap)
	if opts.OnPublish != nil {
		opts.OnPublish(snap)
	}
	return m, nil
}

// initialEpoch routes the state's network from scratch, certifies it like
// any later epoch (maybeVerify) and returns it as epoch 0.
func (m *Manager) initialEpoch() (*Snapshot, error) {
	net := m.st.working.Clone()
	res, err := m.run.routeFull(net)
	if err != nil {
		return nil, fmt.Errorf("fabric: initial routing: %w", err)
	}
	if err := m.run.maybeVerify(net, res, new(EventReport)); err != nil {
		return nil, fmt.Errorf("fabric: initial routing %w", err)
	}
	return &Snapshot{Epoch: 0, Net: net, Result: res}, nil
}

// Restore rewinds the manager to a committed epoch — what a successor
// leader does after failover: the state is rebuilt from the epoch's
// network and the replicated bookkeeping maps (see
// Candidate.Bookkeeping), and the runner's escape-root cache is dropped,
// so repairs start cold. Nothing is published (the epoch already was).
func (m *Manager) Restore(snap *Snapshot, linkFailed map[graph.ChannelID]bool, nodeDown map[graph.NodeID]bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st = restoreState(m.st, snap.Net, linkFailed, nodeDown)
	m.run.dropRoots()
	m.snap.Store(snap)
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
