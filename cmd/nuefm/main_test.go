package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRunSmoke drives the whole binary short of flag parsing and
// listeners: three churn events through the monolithic manager and
// through a sharded, replicated plane. Both share the per-event line and
// the summary; only the plane prints control-plane lines.
func TestRunSmoke(t *testing.T) {
	for _, sr := range [][2]int{{1, 1}, {4, 3}} {
		t.Run(fmt.Sprintf("shards=%d,replicas=%d", sr[0], sr[1]), func(t *testing.T) {
			var out bytes.Buffer
			err := run(config{
				topo: "dragonfly", events: 3, pJoin: 0.3, swEvery: 3,
				vcs: 4, seed: 1, verify: true, oracle: true,
				shards: sr[0], replicas: sr[1], out: &out,
			})
			if err != nil {
				t.Fatalf("run: %v\n%s", err, &out)
			}
			got := out.String()
			for epoch := 1; epoch <= 3; epoch++ {
				if !strings.Contains(got, fmt.Sprintf("\nepoch %d: ", epoch)) {
					t.Errorf("no line for epoch %d:\n%s", epoch, got)
				}
			}
			if !strings.Contains(got, "# 3 events (0 no-ops)") {
				t.Errorf("no summary of 3 events:\n%s", got)
			}
			plane := sr[0] > 1 || sr[1] > 1
			if strings.Contains(got, "# control plane: 4 epochs committed") != plane ||
				strings.Contains(got, " | term 1 leader 0") != plane {
				t.Errorf("control-plane lines with plane=%v:\n%s", plane, got)
			}
		})
	}
}
