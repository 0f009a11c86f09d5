package fabric

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// TestGateAtomicity states the revert contract of the epoch transaction
// where it lives: a gate that returns an error leaves no trace of the
// event (published epoch, tables, down-link set, working network, the
// next churn draw), publishes nothing, and the same event then commits
// through a passing gate — with exactly the tables the gate was shown.
func TestGateAtomicity(t *testing.T) {
	published := 0
	m, err := NewManager(topology.Torus3D(3, 3, 2, 1, 1), Options{
		MaxVCs: 4, Seed: 1, Verify: true,
		OnPublish: func(*Snapshot) { published++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ { // some links down, some columns repaired
		ev, _ := m.RandomEvent(rng, 0)
		if _, err := m.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	ev, ok := m.RandomEvent(rng, 0)
	if !ok {
		t.Fatal("no churn event possible")
	}

	// observe is everything a reverted event must leave untouched.
	type observation struct {
		epoch     uint64
		digest    uint64
		down      []graph.ChannelID
		affected  map[graph.NodeID]struct{}
		nextDraw  Event
		published int
	}
	observe := func() observation {
		snap := m.View()
		// What ev itself would affect, on a probe copy of the working network.
		probe := m.st.working.Clone()
		link := canonical(probe, ev.Link)
		probe.SetChannelFailed(link, true)
		changed := []graph.ChannelID{link, probe.Channel(link).Reverse}
		next, _ := m.RandomEvent(rand.New(rand.NewSource(99)), 0.5)
		return observation{
			epoch:     snap.Epoch,
			digest:    snap.Result.Table.Digest(),
			down:      m.st.downLinks(),
			affected:  affectedDests(probe, snap.Result.Table.Clone(probe), changed),
			nextDraw:  next,
			published: published,
		}
	}
	before := observe()

	errVeto := errors.New("gate says no")
	calls := 0
	rep, err := m.ApplyGated(ev, nil, func(c *Candidate) error {
		calls++
		if c.Event != ev || c.Snap.Epoch != before.epoch+1 {
			t.Errorf("candidate = %+v", c)
		}
		if failed, _ := c.Bookkeeping(); !failed[canonical(c.Snap.Net, ev.Link)] {
			t.Error("candidate bookkeeping does not carry the event")
		}
		return errVeto
	})
	if !errors.Is(err, errVeto) || rep != nil || calls != 1 {
		t.Fatalf("rep=%v err=%v after %d gate calls, want the gate's error once", rep, err, calls)
	}
	if after := observe(); !reflect.DeepEqual(before, after) {
		t.Fatalf("vetoed event left a trace:\nbefore %+v\nafter  %+v", before, after)
	}

	var shown *Snapshot
	rep, err = m.ApplyGated(ev, nil, func(c *Candidate) error { shown = c.Snap; return nil })
	if err != nil {
		t.Fatalf("same event through a passing gate: %v", err)
	}
	if rep.Epoch != before.epoch+1 || m.Epoch() != rep.Epoch || published != before.published+1 {
		t.Fatalf("commit: report epoch %d, manager epoch %d, %d publications; want epoch %d, one publication",
			rep.Epoch, m.Epoch(), published-before.published, before.epoch+1)
	}
	if m.View() != shown {
		t.Fatal("the published snapshot is not the candidate the gate passed")
	}
	if mt := m.Metrics(); mt.Events != 4 {
		t.Fatalf("Metrics.Events = %d, want 4 (vetoed events are not counted)", mt.Events)
	}
}

// TestGatedConstructor: the initial epoch passes the gate before it is
// published, and a refusing gate aborts construction unpublished.
func TestGatedConstructor(t *testing.T) {
	tp := topology.Ring(6, 1)
	gated, published := false, false
	opts := Options{OnPublish: func(*Snapshot) {
		if !gated {
			t.Error("OnPublish fired before the gate")
		}
		published = true
	}}
	m, err := NewGatedManager(tp, opts, func(c *Candidate) error {
		if c.Snap.Epoch != 0 || c.Event != (Event{}) {
			t.Errorf("initial candidate = %+v", c)
		}
		gated = true
		return nil
	})
	if err != nil || !published || m.Epoch() != 0 {
		t.Fatalf("gated construction: err=%v published=%v", err, published)
	}

	published = false
	errVeto := errors.New("no quorum")
	if _, err := NewGatedManager(tp, opts, func(*Candidate) error { return errVeto }); !errors.Is(err, errVeto) {
		t.Fatalf("refusing gate: err=%v, want the gate's error", err)
	}
	if published {
		t.Fatal("refused initial epoch was published")
	}
}
