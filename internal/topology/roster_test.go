package topology_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engines"
	"repro/internal/topology"
)

func n(v int) *int { return &v }

func describe(tp *topology.Topology) string {
	s := topology.Describe(tp)
	return fmt.Sprintf("%s %d/%d/%d", s.Name, s.Switches, s.Terminals, s.SSLinks)
}

func written(t *testing.T, tp *topology.Topology) string {
	t.Helper()
	var buf bytes.Buffer
	if err := topology.Write(&buf, tp); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRoster pins the topology table the way engines.TestRoster pins the
// engine table: the names and their order, the fabric each builds when
// every size is left unset (name, switches/terminals/switch-switch links),
// the metadata it carries — hence which engines of the engine roster apply
// to it — the sizes it reads, the Table 1 subset, and every error text.
func TestRoster(t *testing.T) {
	roster := []struct {
		name, built, meta, reads string
	}{
		{"random", "random-30-90 30/30/90", "", "switches links terminals seed"},
		{"torus", "torus-4x4x3 48/48/144", "torus", "dims terminals redundancy"},
		{"mesh", "mesh-4x4x3 48/48/104", "torus", "dims terminals redundancy"},
		{"fattree", "4-ary 3-tree 48/16/128", "tree", "terminals k levels"},
		{"kautz", "kautz-b3-k2 12/12/36", "", "terminals k levels redundancy"},
		{"dragonfly", "dragonfly-a4-p2-h2-g9 36/72/90", "", ""},
		{"dragonfly180", "dragonfly-a12-p6-h6-g15 180/1080/1515", "", ""},
		{"cascade", "cascade-2group 192/1536/3072", "", ""},
		{"tsubame", "tsubame2.5-like 243/1407/3456", "tree", ""},
		{"ring", "ring-8 8/8/8", "", "switches terminals"},
		{"fullmesh", "fullmesh-8 8/8/28", "mesh", "switches terminals"},
		{"dfgroup", "dfgroup-a8-p1 8/8/28", "mesh", "switches terminals"},
	}
	// The engines built from topology metadata; every other name of the
	// engine roster resolves on every fabric.
	needs := map[string]string{"ftree": "tree", "dor": "torus", "torus2qos": "torus", "angara": "torus", "fullmesh": "mesh"}
	// One valid non-default value per size: a family reads a size exactly
	// when setting it builds a different fabric.
	vary := []struct {
		what string
		p    topology.Params
	}{
		{"dims", topology.Params{Dims: "3x3x2"}},
		{"switches", topology.Params{Switches: n(20)}},
		{"links", topology.Params{Links: n(50)}},
		{"terminals", topology.Params{Terminals: n(3)}},
		{"k", topology.Params{K: n(2)}},
		{"levels", topology.Params{Levels: n(4)}},
		{"redundancy", topology.Params{Redundancy: n(2)}},
		{"seed", topology.Params{Seed: 7}},
	}

	var names []string
	for _, r := range roster {
		names = append(names, r.name)
		tp, err := topology.ByName(r.name, topology.Params{})
		if err != nil {
			t.Errorf("%s with every size unset: %v", r.name, err)
			continue
		}
		if got := describe(tp); got != r.built {
			t.Errorf("%s builds %q by default, want %q", r.name, got, r.built)
		}
		meta := map[string]bool{"torus": tp.Torus != nil, "tree": tp.Tree != nil, "mesh": tp.Mesh != nil}
		for kind, has := range meta {
			if has != (kind == r.meta) {
				t.Errorf("%s: %s metadata present = %v, want only %q", r.name, kind, has, r.meta)
			}
		}
		for _, eng := range engines.Names() {
			_, err := engines.ByName(eng, tp, 1, 1)
			if applies := needs[eng] == "" || needs[eng] == r.meta; (err == nil) != applies {
				t.Errorf("engines.ByName(%q) on %s: %v, want it to apply = %v", eng, r.name, err, applies)
			}
		}
		base, reads := written(t, tp), []string{}
		for _, v := range vary {
			tp, err := topology.ByName(r.name, v.p)
			if err != nil {
				t.Errorf("%s with %s set: %v", r.name, v.what, err)
			} else if written(t, tp) != base {
				reads = append(reads, v.what)
			}
		}
		if got := strings.Join(reads, " "); got != r.reads {
			t.Errorf("%s reads %q, want %q", r.name, got, r.reads)
		}
	}
	if got := strings.Join(topology.Names(), " "); got != strings.Join(names, " ") {
		t.Errorf("Names() = %q, want %q", got, strings.Join(names, " "))
	}

	// Members, order and counts of Table 1 (experiments'
	// TestTable1MatchesPaper checks the published four of these).
	table1 := []string{
		"random-125-1000 125/1000/1000", "torus-6x5x5 150/1050/1800", "10-ary 3-tree 300/1100/2000",
		"kautz-b5-k3 150/1050/1500", "dragonfly-a12-p6-h6-g15 180/1080/1515",
		"cascade-2group 192/1536/3072", "tsubame2.5-like 243/1407/3456",
	}
	var got []string
	for _, tp := range topology.Table1(1) {
		got = append(got, describe(tp))
	}
	if strings.Join(got, "\n") != strings.Join(table1, "\n") {
		t.Errorf("Table 1 is\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(table1, "\n"))
	}

	const badDims = ` (want three sizes of at least 1, like 4x4x3)`
	for _, c := range []struct {
		name string
		p    topology.Params
		err  string
	}{
		{"torus", topology.Params{Dims: "4x4x4x4"}, `topology torus: bad dims "4x4x4x4"` + badDims},
		{"torus", topology.Params{Dims: "4x4"}, `topology torus: bad dims "4x4"` + badDims},
		{"mesh", topology.Params{Dims: "0x1x1"}, `topology mesh: bad dims "0x1x1"` + badDims},
		{"mesh", topology.Params{Dims: "4x-4x4"}, `topology mesh: bad dims "4x-4x4"` + badDims},
		{"torus", topology.Params{Dims: "4xYx4"}, `topology torus: bad dims "4xYx4"` + badDims},
		{"torus", topology.Params{Terminals: n(-1)}, "topology torus: terminals must be at least 0, have -1"},
		{"torus", topology.Params{Redundancy: n(0)}, "topology torus: redundancy must be at least 1, have 0"},
		{"mesh", topology.Params{Redundancy: n(-2)}, "topology mesh: redundancy must be at least 1, have -2"},
		{"random", topology.Params{Switches: n(1), Links: n(0)}, "topology random: switches must be at least 2, have 1"},
		{"random", topology.Params{Switches: n(5), Links: n(3)},
			"topology random: links must be between 4 (a spanning tree of the 5 switches) and 10 (every pair), have 3"},
		{"random", topology.Params{Switches: n(5), Links: n(1000)},
			"topology random: links must be between 4 (a spanning tree of the 5 switches) and 10 (every pair), have 1000"},
		{"random", topology.Params{Terminals: n(-1)}, "topology random: terminals must be at least 0, have -1"},
		{"fattree", topology.Params{K: n(1)}, "topology fattree: k must be at least 2, have 1"},
		{"fattree", topology.Params{Levels: n(1)}, "topology fattree: levels must be at least 2, have 1"},
		{"fattree", topology.Params{Terminals: n(-1)}, "topology fattree: terminals must be at least 0, have -1"},
		{"kautz", topology.Params{K: n(1)}, "topology kautz: k must be at least 2, have 1"},
		{"kautz", topology.Params{Levels: n(0)}, "topology kautz: levels must be at least 2, have 0"},
		{"kautz", topology.Params{Redundancy: n(0)}, "topology kautz: redundancy must be at least 1, have 0"},
		{"kautz", topology.Params{Terminals: n(-1)}, "topology kautz: terminals must be at least 0, have -1"},
		{"ring", topology.Params{Switches: n(1)}, "topology ring: switches must be at least 3, have 1"},
		{"ring", topology.Params{Terminals: n(-1)}, "topology ring: terminals must be at least 0, have -1"},
		{"fullmesh", topology.Params{Switches: n(0)}, "topology fullmesh: switches must be at least 2, have 0"},
		{"fullmesh", topology.Params{Terminals: n(-1)}, "topology fullmesh: terminals must be at least 0, have -1"},
		{"dfgroup", topology.Params{Switches: n(1)}, "topology dfgroup: switches must be at least 2, have 1"},
		{"dfgroup", topology.Params{Terminals: n(-1)}, "topology dfgroup: terminals must be at least 0, have -1"},
		{"tree", topology.Params{},
			`unknown topology "tree" (have random, torus, mesh, fattree, kautz, dragonfly, dragonfly180, cascade, tsubame, ring, fullmesh, dfgroup)`},
	} {
		if tp, err := topology.ByName(c.name, c.p); err == nil || err.Error() != c.err {
			t.Errorf("ByName(%q, %+v) = %v, %v; want error %q", c.name, c.p, tp, err, c.err)
		}
	}

	// Sizes a family does not read are not looked at: the binaries pass
	// every flag they have whatever the name.
	if tp, err := topology.ByName("dragonfly", topology.Params{Dims: "junk", Switches: n(-1), Terminals: n(-1)}); err != nil || describe(tp) != "dragonfly-a4-p2-h2-g9 36/72/90" {
		t.Errorf("dragonfly with sizes it does not read: %v, %v", tp, err)
	}
	upper, err := topology.ByName("torus", topology.Params{Dims: "3X3x2"})
	if err != nil || upper.Name != "torus-3x3x2" {
		t.Errorf(`torus with Dims "3X3x2": %v, %v`, upper, err)
	}
}
