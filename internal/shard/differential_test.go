package shard

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/topology"
)

// diffSeeds returns the sweep width: 200 seeds by default, 12 under
// -short, overridable with NUE_DIFF_SEEDS (the CI failover job runs 60
// under -race).
func diffSeeds(t *testing.T) int {
	if s := os.Getenv("NUE_DIFF_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("NUE_DIFF_SEEDS=%q: %v", s, err)
		}
		return n
	}
	if testing.Short() {
		return 12
	}
	return 200
}

// TestShardedMonolithicDifferential is the digest-equality sweep: for
// every seed, a sharded plane and a monolithic manager replay the same
// churn trace on the same topology with the same fabric options, and
// after every single epoch the published forwarding tables must be
// bit-identical (FNV digest) — sharding changes where layer repairs run
// and who may publish, never what is computed. Both sides run the
// verifier and the oracle post-check, and the plane's report must carry
// both on every epoch it publishes.
func TestShardedMonolithicDifferential(t *testing.T) {
	seeds := diffSeeds(t)
	const events = 6
	for seed := 0; seed < seeds; seed++ {
		var tp *topology.Topology
		switch seed % 3 {
		case 0:
			rng := rand.New(rand.NewSource(int64(seed)))
			sw := 14 + seed%5
			tp = topology.RandomTopology(rng, sw, 3*sw, 1)
		case 1:
			tp = topology.Torus3D(3, 3, 2, 1, 1)
		default:
			tp = topology.Dragonfly(3, 2, 2, 5)
		}
		opts := fabric.Options{
			MaxVCs: 1 + seed%4, Seed: int64(seed), Verify: true,
			PostCheck: func(net *graph.Network, res *routing.Result) error {
				_, err := oracle.Certify(net, res, oracle.Options{})
				return err
			},
		}
		mgr, err := fabric.NewManager(tp, opts)
		if err != nil {
			t.Fatalf("seed %d: monolithic: %v", seed, err)
		}
		p, err := New(tp, Options{
			Shards:   2 + seed%3,
			Replicas: 1 + 2*(seed%2),
			Fabric:   opts,
		})
		if err != nil {
			t.Fatalf("seed %d: sharded: %v", seed, err)
		}
		check := func(step string) {
			ms, ps := mgr.View(), p.View()
			if ms.Epoch != ps.Epoch {
				t.Fatalf("seed %d %s: epochs diverged: monolithic %d, sharded %d",
					seed, step, ms.Epoch, ps.Epoch)
			}
			md, pd := ms.Result.Table.Digest(), ps.Result.Table.Digest()
			if md != pd {
				t.Fatalf("seed %d %s: table digests diverged: monolithic %#x, sharded %#x",
					seed, step, md, pd)
			}
		}
		check("initial")
		rng := rand.New(rand.NewSource(int64(10_000 + seed)))
		for i := 0; i < events; i++ {
			ev, ok := mgr.RandomEvent(rng, 0.3)
			if !ok {
				break
			}
			if _, err := mgr.Apply(ev); err != nil {
				t.Fatalf("seed %d event %d (%s): monolithic: %v", seed, i, ev, err)
			}
			rep, err := p.Apply(ev)
			if err != nil {
				t.Fatalf("seed %d event %d (%s): sharded: %v", seed, i, ev, err)
			}
			if !rep.NoOp && !(rep.Verified && rep.PostChecked) {
				t.Fatalf("seed %d event %d (%s): epoch %d published verified=%v post-checked=%v",
					seed, i, ev, rep.Epoch, rep.Verified, rep.PostChecked)
			}
			check(ev.String())
			if e, ok := p.Cluster().CommittedAt(rep.Epoch); rep.NoOp == false && (!ok || e.Digest != p.View().Result.Table.Digest()) {
				t.Fatalf("seed %d event %d: published epoch %d not digest-committed", seed, i, rep.Epoch)
			}
		}
	}
}
