package fabric

// Tests wiring the independent oracle (internal/oracle) into the fabric
// manager through Options.PostCheck: every published epoch — the initial
// routing and every churn transition — must carry a first-principles
// certificate, and a vetoing post-check must behave exactly like a
// verifier failure.

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/topology"
)

// oraclePost builds a PostCheck closure over oracle.Certify with the
// given budget, counting invocations.
func oraclePost(maxVCs int, calls *int) func(*graph.Network, *routing.Result) error {
	return func(net *graph.Network, res *routing.Result) error {
		*calls++
		_, err := oracle.Certify(net, res, oracle.Options{MaxVCs: maxVCs})
		return err
	}
}

// TestPostCheckCertifiesChurn drives 30 mixed link/switch events with the
// oracle installed as the post-check: every non-no-op transition must be
// both applied and certified, and the certification count must cover the
// initial routing plus every published epoch.
func TestPostCheckCertifiesChurn(t *testing.T) {
	tp := topology.Torus3D(4, 4, 2, 1, 1)
	calls := 0
	m, err := NewManager(tp, Options{MaxVCs: 2, Seed: 5, PostCheck: oraclePost(2, &calls)})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if calls != 1 {
		t.Fatalf("initial routing must be post-checked exactly once, got %d calls", calls)
	}
	rng := rand.New(rand.NewSource(5))
	applied := 0
	for i := 0; i < 30; i++ {
		var ev Event
		var ok bool
		if i%4 == 3 {
			ev, ok = m.RandomSwitchEvent(rng, 0.3)
		} else {
			ev, ok = m.RandomEvent(rng, 0.3)
		}
		if !ok {
			break
		}
		rep, err := m.Apply(ev)
		if err != nil {
			t.Fatalf("event %d (%s): %v", i, ev, err)
		}
		if rep.NoOp {
			continue
		}
		applied++
		if !rep.PostChecked {
			t.Fatalf("event %d (%s) published epoch %d without oracle certification", i, ev, rep.Epoch)
		}
	}
	if applied == 0 {
		t.Fatal("churn schedule applied no events")
	}
	// Incremental transitions that fall back to a full recompute are
	// post-checked twice, so calls is a lower-bounded superset.
	if calls < applied+1 {
		t.Fatalf("post-check ran %d times for %d published epochs", calls, applied)
	}
}

// TestPostCheckBothCableDirections fails the two directed halves of the
// same cable back to back. The manager models cables as duplex links, so
// the first failure takes both halves down (and must republish a
// certified epoch) and the second is a no-op that leaves the certified
// epoch in place — the repair path must not double-fail or resurrect the
// link.
func TestPostCheckBothCableDirections(t *testing.T) {
	tp := topology.Torus3D(4, 4, 1, 1, 1)
	calls := 0
	m, err := NewManager(tp, Options{MaxVCs: 2, Seed: 7, PostCheck: oraclePost(2, &calls)})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	net := m.View().Net

	// Pick a switch-to-switch cable and its two directed halves.
	var half, reverse graph.ChannelID = graph.NoChannel, graph.NoChannel
	for c := 0; c < net.NumChannels(); c++ {
		id := graph.ChannelID(c)
		ch := net.Channel(id)
		if canonical(net, id) == id && net.IsSwitch(ch.From) && net.IsSwitch(ch.To) {
			half, reverse = id, ch.Reverse
			break
		}
	}
	if half == graph.NoChannel {
		t.Fatal("no switch-to-switch cable found")
	}

	rep1, err := m.Apply(Event{Kind: LinkFail, Link: half})
	if err != nil {
		t.Fatalf("first direction: %v", err)
	}
	if rep1.NoOp || !rep1.PostChecked {
		t.Fatalf("first direction must repair and certify: %+v", rep1)
	}
	epoch := m.Epoch()

	rep2, err := m.Apply(Event{Kind: LinkFail, Link: reverse})
	if err != nil {
		t.Fatalf("second direction: %v", err)
	}
	if !rep2.NoOp {
		t.Fatalf("failing the reverse half of a downed cable must be a no-op, got %+v", rep2)
	}
	if m.Epoch() != epoch {
		t.Fatalf("no-op advanced the epoch: %d -> %d", epoch, m.Epoch())
	}
	// The published snapshot must still certify from first principles.
	snap := m.View()
	if _, err := oracle.Certify(snap.Net, snap.Result, oracle.Options{MaxVCs: 2}); err != nil {
		t.Fatalf("epoch %d no longer certifies after duplicate failure: %v", snap.Epoch, err)
	}

	// Rejoining via the reverse half restores the cable (same canonical
	// link) and must republish a certified epoch.
	rep3, err := m.Apply(Event{Kind: LinkJoin, Link: reverse})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if rep3.NoOp || !rep3.PostChecked {
		t.Fatalf("rejoin must repair and certify: %+v", rep3)
	}
}

// TestPostCheckVeto installs a post-check that rejects everything: the
// initial routing must fail construction, mirroring a verifier failure.
func TestPostCheckVeto(t *testing.T) {
	veto := errors.New("rejected by test")
	_, err := NewManager(topology.Ring(6, 1), Options{
		MaxVCs:    2,
		PostCheck: func(*graph.Network, *routing.Result) error { return veto },
	})
	if !errors.Is(err, veto) {
		t.Fatalf("NewManager must surface the post-check veto, got %v", err)
	}
}

// TestVerifyAndPostCheckOverlap pins the certification sequence every
// epoch — the initial one included — goes through: the verifier and the
// post-check both run and both pass before anything is published; with
// one worker the verifier finishes before the post-check starts, with
// more the post-check starts while the verifier is still running; the
// post-check is never re-entered; and of a result both refuse, the
// verifier's reason is the one reported.
func TestVerifyAndPostCheckOverlap(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var (
			mu          sync.Mutex
			order       []string
			inPost      atomic.Int32
			postStarted = make(chan struct{}, 1)
			errPost     = errors.New("post-check refuses")
			refuse      bool
		)
		note := func(s string) {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
		post := func(net *graph.Network, res *routing.Result) error {
			if inPost.Add(1) != 1 {
				t.Error("PostCheck re-entered")
			}
			defer inPost.Add(-1)
			note("post+")
			select {
			case postStarted <- struct{}{}:
			default:
			}
			defer note("post-")
			if refuse {
				return errPost
			}
			_, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 2})
			return err
		}
		// NewManager certifies epoch 0 before a test can reach the runner:
		// the verifier is instrumented from epoch 1 on.
		m, err := NewManager(topology.Torus3D(3, 3, 2, 1, 1), Options{
			MaxVCs: 2, Seed: 3, Verify: true, Workers: workers, PostCheck: post,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := strings.Join(order, " "); got != "post+ post-" {
			t.Fatalf("workers=%d: epoch 0 post-checked as %q, want once", workers, got)
		}
		<-postStarted // epoch 0's: from here on every token is consumed by the run that saw it
		check := m.run.check
		m.run.check = func(net *graph.Network, res *routing.Result) error {
			note("verify+")
			defer note("verify-")
			if workers > 1 {
				select {
				case <-postStarted: // the post-check began while this verifier is still running
				case <-time.After(10 * time.Second):
					t.Error("PostCheck did not start beside the verifier")
				}
			}
			return check(net, res)
		}

		rng := rand.New(rand.NewSource(9))
		order = order[:0]
		epochs := 0
		for i := 0; i < 12; i++ {
			ev, ok := m.RandomEvent(rng, 0.3)
			if !ok {
				break
			}
			rep, err := m.Apply(ev)
			if err != nil {
				t.Fatalf("workers=%d event %d (%s): %v", workers, i, ev, err)
			}
			if rep.NoOp {
				continue
			}
			epochs++
			if !rep.Verified || !rep.PostChecked || rep.CertifyTime <= 0 {
				t.Fatalf("workers=%d event %d (%s): verified=%v post-checked=%v in %s",
					workers, i, ev, rep.Verified, rep.PostChecked, rep.CertifyTime)
			}
		}
		seq := strings.Join(order, " ")
		if v, p := strings.Count(seq, "verify+"), strings.Count(seq, "post+"); v != p || v < epochs || epochs == 0 {
			t.Fatalf("workers=%d: %d verifier runs, %d post-checks for %d epochs", workers, v, p, epochs)
		}
		if want := strings.Repeat("verify+ verify- post+ post- ", epochs); workers == 1 && seq+" " != want {
			t.Fatalf("one worker must verify, then post-check:\n got %s\nwant %s", seq, want)
		}

		// A result both refuse: one entry cut out of a published column.
		snap := m.View()
		bad := *snap.Result
		bad.Table = snap.Result.Table.Clone(nil)
		dests := bad.Table.Dests()
		bad.Table.Set(snap.Net.Switches()[0], dests[len(dests)-1], graph.NoChannel)
		refuse = true
		order = order[:0]
		report := new(EventReport)
		err = m.run.maybeVerify(snap.Net, &bad, report)
		if err == nil || errors.Is(err, errPost) || !strings.Contains(err.Error(), "invalid") {
			t.Fatalf("workers=%d: a result both refuse must report the verifier's error, got %v", workers, err)
		}
		if seq := strings.Join(order, " "); !strings.Contains(seq, "post-") || !strings.Contains(seq, "verify-") {
			t.Fatalf("workers=%d: both must run on a refused result, ran %q", workers, seq)
		}
		if report.Verified || report.PostChecked {
			t.Fatalf("workers=%d: refused result flagged verified=%v post-checked=%v", workers, report.Verified, report.PostChecked)
		}
	}
}
