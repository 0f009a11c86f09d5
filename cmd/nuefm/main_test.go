package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRunSmoke drives the whole binary short of flag parsing and
// listeners: three churn events through the monolithic manager, through
// a sharded, replicated plane, and through the -full baseline. All share
// the per-event line and the summary; only the plane prints control-plane
// lines. Events are drawn from the live controller, so one seed gives the
// incremental and the -full run the same stream — what makes the two
// invocations a like-for-like comparison.
func TestRunSmoke(t *testing.T) {
	var incremental []string
	for _, c := range []struct {
		shards, replicas int
		full             bool
	}{{1, 1, false}, {4, 3, false}, {1, 1, true}} {
		name := fmt.Sprintf("shards=%d,replicas=%d", c.shards, c.replicas)
		if c.full {
			name += ",full"
		}
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(config{
				topo: "dragonfly", events: 3, pJoin: 0.3, swEvery: 3,
				vcs: 4, seed: 1, verify: true, oracle: true, full: c.full,
				shards: c.shards, replicas: c.replicas, out: &out,
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
			case c.shards == 1 && !c.full:
				incremental = events
			case c.full:
				if !strings.Contains(got, " — full, ") || strings.Join(events, "\n") != strings.Join(incremental, "\n") {
					t.Errorf("-full run applied %q (want full recomputes of %q):\n%s", events, incremental, got)
				}
			}
			if !strings.Contains(got, "# 3 events (0 no-ops)") {
				t.Errorf("no summary of 3 events:\n%s", got)
			}
			plane := c.shards > 1 || c.replicas > 1
			if strings.Contains(got, "# control plane: 4 epochs committed") != plane ||
				strings.Contains(got, " | term 1 leader 0") != plane {
				t.Errorf("control-plane lines with plane=%v:\n%s", plane, got)
			}
		})
	}
}
