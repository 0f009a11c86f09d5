package engines_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engines"
	"repro/internal/oracle/stress"
	"repro/internal/routing"
	"repro/internal/topology"
)

func names(es []routing.Engine) string {
	var out []string
	for _, e := range es {
		out = append(out, e.Name())
	}
	return strings.Join(out, " ")
}

// TestRoster pins the three views of the table on every stress class and
// on one hand-built topology per kind of metadata: which names resolve
// (and the error text when one does not), and the members and order of
// the differential roster and of the baseline list.
func TestRoster(t *testing.T) {
	// The engines built from topology metadata, with the error a topology
	// without it gets. Every other name resolves everywhere.
	needs := map[string]struct{ meta, err string }{
		"ftree":     {"tree", "ftree requires a fat-tree topology"},
		"dor":       {"torus", "dor requires a torus topology"},
		"torus2qos": {"torus", "torus2qos requires a torus topology"},
		"angara":    {"torus", "angara requires a torus or mesh topology"},
		"fullmesh":  {"mesh", "fullmesh requires a full-mesh fabric"},
	}
	// What each kind of metadata adds to the rosters of a duplex network.
	const common, baselines = "nue updn lash dfsssp minhop exists", "updn lash dfsssp"
	differential := map[string]string{"tree": " ftree", "torus": " dor torus2qos angara", "mesh": " fullmesh"}
	baseline := map[string]string{"tree": " ftree", "torus": " torus2qos"}

	oneWay := topology.Ring(5, 1)
	oneWay.Net.SetHalfFailed(oneWay.Net.FindChannel(oneWay.Net.Switches()[0], oneWay.Net.Switches()[1]), true)
	type tc struct {
		name string
		tp   *topology.Topology
		meta string // the one kind of metadata tp carries, if any
	}
	cases := []tc{
		{"fattree", topology.KAryNTree(2, 3, 2), "tree"},
		{"torus", topology.Torus3D(3, 3, 2, 1, 1), "torus"},
		{"fullmesh", topology.FullMesh(6, 1), "mesh"},
		{"one-way", oneWay, ""},
	}
	classMeta := map[stress.Class]string{
		stress.ClassTorus: "torus", stress.ClassRing: "torus", stress.ClassFatTree: "tree",
		stress.ClassFullMesh: "mesh", stress.ClassDFGroup: "mesh",
	}
	for _, class := range stress.Classes() {
		cases = append(cases, tc{"stress-" + string(class), stress.Generate(class, rand.New(rand.NewSource(3))), classMeta[class]})
	}

	resolved := map[string]bool{}
	for _, c := range cases {
		for _, name := range engines.Names() {
			eng, err := engines.ByName(name, c.tp, 1, 1)
			if need, ok := needs[name]; ok && need.meta != c.meta {
				if err == nil || err.Error() != need.err {
					t.Errorf("%s: ByName(%q) = %v, want error %q", c.name, name, err, need.err)
				}
				continue
			}
			// Rosters are lists of engines; their lines, case names and
			// -engine filter all go by Engine.Name().
			if err != nil || eng.Name() != name {
				t.Errorf("%s: ByName(%q) = %v, %v", c.name, name, eng, err)
			}
			resolved[name] = true
		}
		want := common + differential[c.meta]
		if !c.tp.Net.Symmetric() {
			want = "exists minhop"
		}
		if got := names(engines.Differential(c.tp, 1, 1)); got != want {
			t.Errorf("%s: differential roster %q, want %q", c.name, got, want)
		}
		if got, want := names(engines.Baselines(c.tp)), baselines+baseline[c.meta]; got != want {
			t.Errorf("%s: baselines %q, want %q", c.name, got, want)
		}
	}

	for _, name := range engines.Names() {
		if !resolved[name] {
			t.Errorf("%q resolves on no topology of the test", name)
		}
	}
	if oneWay.Net.Symmetric() {
		t.Error("the one-way case is duplex; the test covers no one-way roster")
	}
	// One roster: every name is on the differential roster of some
	// topology, in table order.
	if got := strings.Join(engines.Names(), " "); got != common+" ftree dor torus2qos angara fullmesh" {
		t.Errorf("names %q", got)
	}
	if _, err := engines.ByName("bogus", oneWay, 1, 1); err == nil || err.Error() != `unknown routing engine "bogus"` {
		t.Errorf("ByName(bogus) = %v", err)
	}
}
