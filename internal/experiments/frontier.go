package experiments

// The frontier experiment compares the specialized low-VC engines
// (fullmesh, angara) against Nue on their claimed domains, at the
// minimum VC budget each specialist claims — the regime the HOTI'25
// VC-free scenario and the Angara papers argue about. Each topology
// also gets an existence verdict from the oracle's decision procedure,
// so the table shows the three-way split the -decide stress mode
// adjudicates: what provably exists, what the specialist delivers, and
// what the general-purpose engine needs to match it.

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"repro/internal/engines"
	"repro/internal/oracle"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// FrontierConfig parameterizes the frontier comparison.
type FrontierConfig struct {
	// MeshSwitches sizes the full-mesh fabrics.
	MeshSwitches int
	// TorusDims sizes the torus and mesh grids.
	TorusDims [3]int
	// FailFraction degrades one instance of each family.
	FailFraction float64
	Seed         int64
	Workers      int
}

// DefaultFrontierConfig returns laptop-sized parameters.
func DefaultFrontierConfig() FrontierConfig {
	return FrontierConfig{
		MeshSwitches: 8,
		TorusDims:    [3]int{4, 4, 2},
		FailFraction: 0.08,
		Seed:         1,
	}
}

// FrontierRow is one (topology, engine) cell of the comparison.
type FrontierRow struct {
	Topology string
	Routing  string
	// Routable is the existence verdict for the topology (identical for
	// every engine row of the same topology).
	Routable bool
	// MaxVCs is the budget handed to the engine; VCs what it used.
	MaxVCs, VCs int
	// Deps and MaxHops come from the verifier's report.
	Deps, MaxHops int
	RoutingTime   time.Duration
	// Err is non-empty when the engine was inapplicable or refused.
	Err string
}

// Frontier runs the comparison: every topology is decided for
// single-lane existence, then routed by its specialist engine and by
// Nue at the specialist's claimed budget.
func Frontier(cfg FrontierConfig) ([]FrontierRow, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.TorusDims
	fullmeshTp := topology.FullMesh(cfg.MeshSwitches, 1)
	dfgroupTp := topology.DragonflyGroup(cfg.MeshSwitches, 1)
	degMesh, _ := topology.InjectLinkFailures(topology.FullMesh(cfg.MeshSwitches, 1), rng, cfg.FailFraction)
	torusTp := topology.Torus3D(d[0], d[1], d[2], 1, 1)
	degTorus, _ := topology.InjectLinkFailures(topology.Torus3D(d[0], d[1], d[2], 1, 1), rng, cfg.FailFraction)
	meshTp := topology.Mesh3D(d[0], d[1], d[2], 1, 1)

	var rows []FrontierRow
	for _, tc := range []struct {
		tp         *topology.Topology
		specialist string
		budget     int
	}{
		{fullmeshTp, "fullmesh", 1},
		{dfgroupTp, "fullmesh", 1},
		{degMesh, "fullmesh", 1},
		{torusTp, "angara", 2},
		{degTorus, "angara", 2},
		{meshTp, "angara", 1},
	} {
		dec, err := oracle.Decide(tc.tp.Net, oracle.ExistsOptions{})
		if err != nil {
			return nil, fmt.Errorf("frontier: decide %s: %w", tc.tp.Name, err)
		}
		for _, name := range []string{tc.specialist, "nue"} {
			row := FrontierRow{Topology: tc.tp.Name, Routing: name, Routable: dec.Routable, MaxVCs: tc.budget}
			eng, err := engines.ByName(name, tc.tp, cfg.Seed, cfg.Workers)
			if err != nil {
				row.Err = err.Error()
				rows = append(rows, row)
				continue
			}
			start := time.Now()
			res, err := eng.Route(tc.tp.Net, connectedTerminals(tc.tp.Net), tc.budget)
			row.RoutingTime = time.Since(start)
			if err != nil {
				row.Err = err.Error()
				rows = append(rows, row)
				continue
			}
			row.VCs = res.VCs
			rep, err := verify.Check(tc.tp.Net, res, nil)
			if err != nil {
				row.Err = fmt.Sprintf("verification failed: %v", err)
				rows = append(rows, row)
				continue
			}
			row.Deps, row.MaxHops = rep.Deps, rep.MaxHops
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// WriteFrontier renders the comparison as an aligned table.
func WriteFrontier(w io.Writer, cfg FrontierConfig) error {
	rows, err := Frontier(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Existence frontier: specialist engines vs Nue at the specialist's budget")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "topology\troutable@1\trouting\tVC-limit\tVCs-used\tdeps\tmax-hops\troute-time\tnote")
	for _, r := range rows {
		note := r.Err
		if note == "" {
			note = "ok"
		}
		fmt.Fprintf(tw, "%s\t%v\t%s\t%d\t%d\t%d\t%d\t%s\t%s\n",
			r.Topology, r.Routable, r.Routing, r.MaxVCs, r.VCs, r.Deps, r.MaxHops,
			r.RoutingTime.Round(time.Microsecond), note)
	}
	return tw.Flush()
}
