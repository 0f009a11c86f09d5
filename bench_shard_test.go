package repro

// Sharded control-plane benchmarks (PR 9): the publish path of a
// multi-shard plane — region-affine job scheduling, seam certification,
// quorum commit — against the single-shard path on the same churn.

import (
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/shard"
	"repro/internal/topology"
)

// benchShardApply drives one churn event per op through a plane with
// the given shard count (3 replicas, the deployment default). Events are
// drawn from a shadow state so they are valid for the plane's evolving
// topology; pJoin 0.5 keeps the fabric near its pristine density across
// arbitrarily many ops.
func benchShardApply(b *testing.B, shards int) {
	tp := topology.Dragonfly(4, 2, 2, 9)
	p, err := shard.New(tp, shard.Options{
		Shards:   shards,
		Replicas: 3,
		Fabric:   fabric.Options{MaxVCs: 4, Seed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	st := fabric.NewState(tp.Net)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, ok := st.RandomEvent(rng, 0.5)
		if !ok {
			b.Fatal("no churn event possible")
		}
		st.Mutate(ev)
		if _, err := p.Apply(ev); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m := p.Metrics()
	if total := m.LocalJobs + m.SeamJobs; total > 0 {
		b.ReportMetric(float64(m.LocalJobs)/float64(total), "local-job-fraction")
	}
}

func BenchmarkShardApply(b *testing.B) {
	b.Run("shards=1", func(b *testing.B) { benchShardApply(b, 1) })
	b.Run("shards=4", func(b *testing.B) { benchShardApply(b, 4) })
}
