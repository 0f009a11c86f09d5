package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/topology"
)

// TestRunSmoke drives the whole binary short of flag parsing and
// listeners: three churn events through a one-replica plane, a
// three-replica plane, and the -full baseline. Every replica count runs
// the same control plane, so all print the per-event line with its
// ` | term 1 leader 0` suffix, the summary and the control-plane lines.
// Events are drawn from the live plane, so one seed gives the
// incremental and the -full run the same stream — what makes the two
// invocations a like-for-like comparison.
func TestRunSmoke(t *testing.T) {
	var incremental []string
	for _, c := range []struct {
		replicas int
		full     bool
	}{{1, false}, {3, false}, {1, true}} {
		name := fmt.Sprintf("replicas=%d", c.replicas)
		if c.full {
			name += ",full"
		}
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(config{
				topo: "dragonfly", events: 3, pJoin: 0.3, swEvery: 3,
				vcs: 4, seed: 1, verify: true, oracle: true, full: c.full,
				replicas: c.replicas, out: &out,
			})
			if err != nil {
				t.Fatalf("run: %v\n%s", err, &out)
			}
			got := out.String()
			var events []string
			for epoch := 1; epoch <= 3; epoch++ {
				_, line, ok := strings.Cut(got, fmt.Sprintf("\nepoch %d: ", epoch))
				if !ok {
					t.Errorf("no line for epoch %d:\n%s", epoch, got)
				}
				ev, _, _ := strings.Cut(line, " — ")
				events = append(events, ev)
			}
			switch {
			case c.replicas == 1 && !c.full:
				incremental = events
			case c.full:
				if !strings.Contains(got, " — full, ") || strings.Join(events, "\n") != strings.Join(incremental, "\n") {
					t.Errorf("-full run applied %q (want full recomputes of %q):\n%s", events, incremental, got)
				}
			}
			if !strings.Contains(got, "# 3 events (0 no-ops)") {
				t.Errorf("no summary of 3 events:\n%s", got)
			}
			head := fmt.Sprintf("# control plane: %d replicas (quorum %d), leader 0 term 1\n", c.replicas, c.replicas/2+1)
			if !strings.Contains(got, head) ||
				!strings.Contains(got, "# control plane: 4 epochs committed, leader 0 term 1\n") ||
				strings.Count(got, " | term 1 leader 0\n") != 3 {
				t.Errorf("control-plane lines with %d replicas:\n%s", c.replicas, got)
			}
		})
	}
}

// TestRunRefusesBadFlags: run's error is what main prints, alone on
// stderr, before exit status 1. A topology name or size the roster refuses
// is the roster's error — the same text nueroute, topogen and nueload
// print — and a control plane of no replicas is refused before anything
// is routed.
func TestRunRefusesBadFlags(t *testing.T) {
	rosterErr := func(name string, p topology.Params) string {
		_, err := topology.ByName(name, p)
		if err == nil {
			t.Fatalf("ByName(%q, %+v) succeeds", name, p)
		}
		return err.Error()
	}
	minus := -1
	for _, c := range []struct {
		cfg  config
		want string
	}{
		{config{topo: "tree", replicas: 1}, rosterErr("tree", topology.Params{})},
		{config{topo: "torus", dims: "4x4x4x4", replicas: 1}, rosterErr("torus", topology.Params{Dims: "4x4x4x4"})},
		{config{topo: "ring", terminals: -1, replicas: 1}, rosterErr("ring", topology.Params{Terminals: &minus})},
		{config{topo: "dragonfly", replicas: 0}, "-replicas must be at least 1, have 0"},
		{config{topo: "dragonfly", replicas: -1}, "-replicas must be at least 1, have -1"},
	} {
		var out bytes.Buffer
		c.cfg.out = &out
		if err := run(c.cfg); err == nil || err.Error() != c.want || out.Len() != 0 {
			t.Errorf("run(%+v) = %v, printed %q; want error %q and no output", c.cfg, err, &out, c.want)
		}
	}
}
