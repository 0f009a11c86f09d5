package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/engines"
	"repro/internal/mcast"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/topology"
)

// McastConfig parameterizes the multicast experiment: seeded random
// group memberships are routed as deadlock-free cast trees inside the
// unicast routing's complete CDG, the combined configuration is
// certified by the independent oracle, and a group-broadcast workload
// is pushed through the flit simulator (replication at branch
// switches).
type McastConfig struct {
	// Groups is the number of random groups; GroupSize the members per
	// group (clamped to the terminal count).
	Groups, GroupSize int
	// MaxVCs is the VC budget for the underlying unicast routing.
	MaxVCs int
	Seed   int64
	// Workers bounds Nue's routing goroutines (0 = GOMAXPROCS).
	Workers int
}

// mcastRounds is the number of broadcast rounds each group performs.
const mcastRounds = 2

// DefaultMcastConfig routes 8 groups of 6 on laptop-sized topologies.
func DefaultMcastConfig() McastConfig {
	return McastConfig{
		Groups:    8,
		GroupSize: 6,
		MaxVCs:    4,
	}
}

// McastRow is one topology's multicast measurement.
type McastRow struct {
	Topology string
	// Groups is the routed group count; Receivers/UBM/Unrouted the
	// member triage across all groups; TreeEdges the committed cast
	// out-channels.
	Groups, Receivers, UBM, Unrouted, TreeEdges int
	// CastEdges is the number of cast dependency edges the oracle
	// admitted into the union graph when certifying.
	CastEdges int
	// BuildTime is the cast-table construction time.
	BuildTime time.Duration
	// FlitsPerCycle is the simulated broadcast throughput;
	// ReplicatedFlits the flit copies created at branch switches.
	FlitsPerCycle   float64
	ReplicatedFlits int64
	Err             string
}

// Mcast runs the multicast experiment over the default topology set.
func Mcast(cfg McastConfig) []McastRow {
	tops := []*topology.Topology{
		topology.Torus3D(3, 3, 3, 1, 1),
		topology.KAryNTree(4, 2, 4),
		topology.Ring(8, 2),
	}
	rows := make([]McastRow, 0, len(tops))
	for _, tp := range tops {
		rows = append(rows, mcastOne(tp, cfg))
	}
	return rows
}

// mcastOne routes, builds, certifies and simulates one topology.
func mcastOne(tp *topology.Topology, cfg McastConfig) McastRow {
	row := McastRow{Topology: tp.Name}
	net := tp.Net
	eng := engines.Nue(cfg.Seed, cfg.Workers)
	res, err := eng.Route(net, connectedTerminals(net), cfg.MaxVCs)
	if err != nil {
		row.Err = err.Error()
		return row
	}

	groups := mcast.SeededGroups(cfg.Seed, net, cfg.Groups, cfg.GroupSize)
	start := time.Now()
	cast, st, err := mcast.Build(net, res, groups)
	row.BuildTime = time.Since(start)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	res.Cast = cast
	row.Groups = st.Groups
	row.Receivers = st.Receivers
	row.UBM = st.UBMMembers
	row.Unrouted = st.UnroutedMembers
	row.TreeEdges = st.TreeEdges

	cert, err := oracle.Certify(net, res, oracle.Options{MaxVCs: cfg.MaxVCs})
	if err != nil {
		row.Err = fmt.Sprintf("oracle refused: %v", err)
		return row
	}
	row.CastEdges = cert.CastEdges

	var msgs []sim.Message
	for r := 0; r < mcastRounds; r++ {
		for _, g := range groups {
			msgs = append(msgs, sim.Message{Group: g.ID})
		}
	}
	r, err := sim.Run(net, res, msgs, sim.DefaultConfig())
	if err != nil {
		row.Err = err.Error()
		return row
	}
	if r.Deadlocked {
		row.Err = "deadlocked in simulation"
		return row
	}
	row.FlitsPerCycle = r.FlitsPerCycle
	row.ReplicatedFlits = r.ReplicatedFlits
	return row
}

// WriteMcast runs and prints the experiment.
func WriteMcast(w io.Writer, cfg McastConfig) []McastRow {
	rows := Mcast(cfg)
	fmt.Fprintf(w, "## Multicast cast-tree routing — %d groups of %d, %d broadcast rounds\n",
		cfg.Groups, cfg.GroupSize, mcastRounds)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "topology\tgroups\treceivers\tubm\tunrouted\ttree-edges\tcast-deps\tbuild-time\tthroughput(flits/cycle)\treplicated-flits\tnote")
	for _, r := range rows {
		note := r.Err
		if note == "" {
			note = "ok (certified)"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%.3f\t%d\t%s\n",
			r.Topology, r.Groups, r.Receivers, r.UBM, r.Unrouted, r.TreeEdges,
			r.CastEdges, r.BuildTime.Round(time.Microsecond), r.FlitsPerCycle,
			r.ReplicatedFlits, note)
	}
	tw.Flush()
	return rows
}
