// Command nueagent runs one simulated switch agent: it connects to a
// nuefm distribution source (nuefm -serve), receives per-switch linear
// forwarding tables — full snapshots or deltas against its last
// committed epoch — and installs them with the two-phase protocol
// (stage, validate checksums, ack, atomic swap on commit). The agent
// reconnects with backoff and resumes from its installed epoch, so a
// restart of either side converges back to delta distribution.
//
// Usage:
//
//	nueagent -connect 127.0.0.1:9411                    # subscribe to every switch
//	nueagent -connect 127.0.0.1:9411 -switches 0,5,17   # own a shard of the fabric
//	nueagent -connect 127.0.0.1:9411 -status 5s         # print install state periodically
//	nueagent -connect 127.0.0.1:9411,127.0.0.1:9412     # fail over between publishers
//
// A comma-separated -connect lists the publishers of a replicated
// control plane (nuefm -replicas N -serve): the agent rotates through
// them on connection loss and resumes from its installed epoch with
// whichever replica answers, so a leader crash mid-epoch costs one
// reconnect, not a full re-sync.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/distrib/agent"
	"repro/internal/graph"
)

func main() {
	var (
		connect   = flag.String("connect", "", "address of the nuefm -serve distribution source; comma-separate replicated publishers for failover (required)")
		id        = flag.String("id", "", "agent identity reported to the source (default host-pid)")
		switches  = flag.String("switches", "", "comma-separated switch IDs this agent owns (empty = all)")
		reconnect = flag.Duration("reconnect", time.Second, "backoff between reconnect attempts")
		status    = flag.Duration("status", 0, "print the installed epoch at this interval (0 = only on change)")
	)
	flag.Parse()
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "nueagent: -connect is required")
		flag.Usage()
		os.Exit(2)
	}
	if *id == "" {
		host, _ := os.Hostname()
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	owned, err := parseSwitches(*switches)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nueagent: %v\n", err)
		os.Exit(2)
	}

	a := agent.New(agent.Options{
		ID:       *id,
		Switches: owned,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	go watchInstalls(ctx, a, *status)
	addrs := parseAddrs(*connect)
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "nueagent: -connect lists no address")
		os.Exit(2)
	}
	fmt.Printf("# nueagent %s: connecting to %s (%s)\n", *id, strings.Join(addrs, ", "), describe(owned))
	dialErr := a.DialMulti(ctx, addrs, *reconnect)
	if dialErr != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "nueagent: %v\n", dialErr)
		os.Exit(1)
	}
	ep, crc, ok := a.Snapshot()
	st := a.Stats()
	if ok {
		fmt.Printf("# nueagent %s: exiting at epoch %d (crc %#x), %d commits (%d full, %d delta, %d drained), %d naks, %d failovers\n",
			*id, ep, crc, st.Commits, st.FullSyncs, st.DeltaInstalls, st.Drains, st.Naks, st.Failovers)
	} else {
		fmt.Printf("# nueagent %s: exiting with no epoch installed\n", *id)
	}
}

// watchInstalls prints one line per committed epoch (and, with a
// positive interval, a periodic heartbeat).
func watchInstalls(ctx context.Context, a *agent.Agent, every time.Duration) {
	poll := 50 * time.Millisecond
	tick := time.NewTicker(poll)
	defer tick.Stop()
	var lastEpoch uint64
	var has bool
	lastPrint := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		ep, crc, ok := a.Snapshot()
		changed := ok && (!has || ep != lastEpoch)
		heartbeat := every > 0 && time.Since(lastPrint) >= every
		if changed || (heartbeat && ok) {
			st := a.Stats()
			fmt.Printf("epoch %d installed (crc %#x, forwarding %v, %d full / %d delta / %d drained)\n",
				ep, crc, a.Forwarding(), st.FullSyncs, st.DeltaInstalls, st.Drains)
			lastEpoch, has = ep, true
			lastPrint = time.Now()
		}
	}
}

// parseAddrs splits a comma-separated publisher list, dropping empty
// entries.
func parseAddrs(s string) []string {
	var addrs []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			addrs = append(addrs, part)
		}
	}
	return addrs
}

func parseSwitches(s string) ([]graph.NodeID, error) {
	if s == "" {
		return nil, nil
	}
	var ids []graph.NodeID
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad switch id %q: %v", part, err)
		}
		ids = append(ids, graph.NodeID(v))
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("-switches %q lists no switch", s)
	}
	return ids, nil
}

func describe(owned []graph.NodeID) string {
	if owned == nil {
		return "all switches"
	}
	return fmt.Sprintf("%d switches", len(owned))
}
