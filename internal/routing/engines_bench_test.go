package routing_test

import (
	"fmt"
	"testing"

	"repro/internal/routing"
	"repro/internal/routing/dfsssp"
	"repro/internal/routing/dor"
	"repro/internal/routing/lash"
	"repro/internal/topology"
)

// BenchmarkBaselineEngines times the baselines that search an induced
// CDG for cycles (DFSSSP's layering, LASH's layer admission) and the two
// grid engines that plan each path from coordinates (Torus-2QoS, Angara)
// on two tori, all terminals at 8 VCs. An engine that refuses the fabric
// is timed to its refusal, which is the work it does there (on the 6x6x6
// torus dfsssp runs out of VCs):
//
//	go test -run '^$' -bench BenchmarkBaselineEngines -benchtime 1x ./internal/routing
func BenchmarkBaselineEngines(b *testing.B) {
	for _, dims := range [][3]int{{4, 4, 3}, {6, 6, 6}} {
		tp := topology.Torus3D(dims[0], dims[1], dims[2], 1, 1)
		for _, e := range []routing.Engine{dfsssp.Engine{}, lash.Engine{},
			dor.Engine{Meta: tp.Torus, Datelines: true}, dor.Angara{Meta: tp.Torus}} {
			b.Run(fmt.Sprintf("torus-%dx%dx%d/%s", dims[0], dims[1], dims[2], e.Name()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, err := e.Route(tp.Net, tp.Net.Terminals(), 8)
					if i == 0 && err != nil {
						b.Logf("refused: %v", err)
					}
				}
			})
		}
	}
}
