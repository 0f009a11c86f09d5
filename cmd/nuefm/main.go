// Command nuefm runs the online fabric manager against a topology and a
// stream of churn events, printing one line of repair metrics per event —
// the operational view of Nue routing run fail-in-place.
//
// Usage:
//
//	nuefm -topo torus -dims 4x4x4 -events 20            # random link churn
//	nuefm -topo dragonfly -events 50 -pjoin 0.4         # more rejoins
//	nuefm -topo random -trace failures.txt              # replay a trace
//	nuefm -topo torus -events 20 -full                  # full-recompute baseline
//	nuefm -serve :9411 -events 20 -hold 1m              # distribute LFTs to nueagent fleets
//	nuefm -replicas 3 -topo dragonfly                   # replicated control plane
//
// Trace files hold one event per line ("fail-link <from> <to>",
// "join-link <from> <to>", "fail-switch <id>", "join-switch <id>"; '#'
// starts a comment). Without -trace, -events random connectivity-
// preserving link events are drawn (-switch-every n mixes in a switch
// event every n events).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/distrib"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// config carries the flag values of one run.
type config struct {
	topo, dims       string
	terminals        int
	events           int
	pJoin            float64
	swEvery          int
	trace            string
	vcs              int
	seed             int64
	verify, oracle   bool
	full             bool
	telemAddr, serve string
	replicas         int
	interval, hold   time.Duration
	out              io.Writer
}

func main() {
	cfg := config{out: os.Stdout}
	flag.StringVar(&cfg.topo, "topo", "torus", "topology: "+strings.Join(topology.Names(), ", "))
	flag.StringVar(&cfg.dims, "dims", "4x4x4", "torus/mesh dimensions")
	flag.IntVar(&cfg.terminals, "t", 1, "terminals per switch")
	flag.IntVar(&cfg.events, "events", 20, "number of random churn events")
	flag.Float64Var(&cfg.pJoin, "pjoin", 0.3, "probability a random event restores a failed link")
	flag.IntVar(&cfg.swEvery, "switch-every", 0, "draw a switch event every n events (0 = links only)")
	flag.StringVar(&cfg.trace, "trace", "", "replay events from a trace file instead of random churn")
	flag.IntVar(&cfg.vcs, "vcs", 4, "virtual channel budget")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for routing and churn")
	flag.BoolVar(&cfg.verify, "verify", true, "verify connectivity + deadlock freedom per event")
	flag.BoolVar(&cfg.oracle, "oracle", false, "certify every published epoch with the independent oracle (internal/oracle)")
	flag.BoolVar(&cfg.full, "full", false, "disable incremental repair (full recompute per event)")
	flag.StringVar(&cfg.telemAddr, "telemetry-addr", "", "serve Prometheus /metrics, /telemetry.json and net/http/pprof on this address (e.g. :9090; empty = off)")
	flag.StringVar(&cfg.serve, "serve", "", "distribute forwarding tables to nueagent fleets on this address (e.g. :9411; empty = off)")
	flag.IntVar(&cfg.replicas, "replicas", 1, "epoch-log replication factor of the control plane (quorum commit; with -serve, one publisher per replica on consecutive ports)")
	flag.DurationVar(&cfg.interval, "event-interval", 0, "pause between churn events (gives scrapers a live view)")
	flag.DurationVar(&cfg.hold, "hold", 0, "keep running (and serving telemetry) this long after the last event")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is one nuefm invocation: build the control plane, drive the churn
// loop through it, print one line per event and the summary.
func run(cfg config) error {
	if cfg.replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1, have %d", cfg.replicas)
	}
	var reg *telemetry.Registry
	if cfg.telemAddr != "" {
		reg = telemetry.New()
		addr, err := serveTelemetry(cfg.telemAddr, reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "# telemetry: http://%s/metrics (Prometheus), /telemetry.json, /debug/pprof/\n", addr)
	}

	tp, err := topology.ByName(cfg.topo, topology.Params{Dims: cfg.dims, Terminals: &cfg.terminals, Seed: cfg.seed})
	if err != nil {
		return err
	}
	opts := fabric.Options{
		MaxVCs:          cfg.vcs,
		Seed:            cfg.seed,
		Verify:          cfg.verify,
		FullRecompute:   cfg.full,
		Telemetry:       reg.Fabric(),
		EngineTelemetry: reg.Engine(),
	}
	if cfg.oracle {
		opts.PostCheck = func(net *graph.Network, res *routing.Result) error {
			_, err := oracle.Certify(net, res, oracle.Options{MaxVCs: cfg.vcs})
			return err
		}
	}

	// Publishers first: the plane replicates the initial epoch from its
	// constructor, so the sources must exist before it does.
	var sources []*distrib.Source
	defer func() {
		for _, s := range sources {
			s.Close()
		}
	}()
	if cfg.serve != "" {
		if sources, err = serveReplicas(cfg, reg); err != nil {
			return err
		}
	}
	publish := func(replica int, s *fabric.Snapshot) {
		if replica < len(sources) {
			sources[replica].Publish(distrib.Epoch{Seq: s.Epoch, Net: s.Net, Result: s.Result})
		}
	}

	start := time.Now()
	plane, err := shard.New(tp, shard.Options{
		Replicas:    cfg.replicas,
		Fabric:      opts,
		OnReplicate: publish,
		Telemetry:   reg.Shard(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "# %s: initial routing in %s (%d VCs)\n",
		tp.Name, time.Since(start).Round(time.Millisecond), plane.View().Result.VCs)
	leader, term := plane.Leader()
	fmt.Fprintf(cfg.out, "# control plane: %d replicas (quorum %d), leader %d term %d\n",
		cfg.replicas, plane.Cluster().Size()/2+1, leader, term)

	var evs []fabric.Event
	if cfg.trace != "" {
		f, err := os.Open(cfg.trace)
		if err != nil {
			return err
		}
		evs, err = fabric.ParseTrace(f, plane.View().Net)
		f.Close()
		if err != nil {
			return err
		}
	}

	// The summary adds up the reports: a no-op counts only as an event
	// and a no-op, every other report is summed.
	var (
		events, noops, repaired, destRoutes, rebuilds, fulls int
		delta                                                routing.TableDelta
		latency                                              time.Duration
	)
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	n := cfg.events
	if cfg.trace != "" {
		n = len(evs)
	}
	for i := 0; i < n; i++ {
		var ev fabric.Event
		if cfg.trace != "" {
			ev = evs[i]
		} else {
			var ok bool
			if cfg.swEvery > 0 && (i+1)%cfg.swEvery == 0 {
				ev, ok = plane.RandomSwitchEvent(rng, cfg.pJoin)
			} else {
				ev, ok = plane.RandomEvent(rng, cfg.pJoin)
			}
			if !ok {
				fmt.Fprintln(cfg.out, "# no further churn event possible")
				break
			}
		}
		rep, err := plane.Apply(ev)
		if err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		fmt.Fprintf(cfg.out, "%s | term %d leader %d\n", rep, rep.Term, rep.Leader)
		events++
		if rep.NoOp {
			noops++
		} else {
			repaired += rep.RepairedDests
			destRoutes += rep.TotalDests
			rebuilds += rep.LayerRebuilds
			if rep.FullRecompute {
				fulls++
			}
			delta.Changed += rep.Delta.Changed
			delta.Added += rep.Delta.Added
			delta.Removed += rep.Delta.Removed
			delta.Same += rep.Delta.Same
			latency += rep.Latency
		}
		if cfg.interval > 0 && i < n-1 {
			time.Sleep(cfg.interval)
		}
	}

	fmt.Fprintf(cfg.out, "# %d events (%d no-ops), %d/%d destination routes recomputed (%.1f%%), %d layer rebuilds, %d full recomputes\n",
		events, noops, repaired, destRoutes,
		100*float64(repaired)/float64(max(1, destRoutes)), rebuilds, fulls)
	fmt.Fprintf(cfg.out, "# table entries: %.1f%% unchanged across events; total event latency %s\n",
		100*delta.UnchangedFraction(), latency.Round(time.Millisecond))
	// Epoch 0 is the initial routing; nothing here kills a replica, so
	// the one election at construction is the only one.
	leader, term = plane.Leader()
	fmt.Fprintf(cfg.out, "# control plane: %d epochs committed, leader %d term %d\n",
		plane.Epoch()+1, leader, term)
	if leader >= 0 && leader < len(sources) {
		// Give connected agents a chance to catch up, then report the
		// fleet state as the leader's publisher sees it.
		src := sources[leader]
		src.WaitConverged(plane.Epoch(), 10*time.Second)
		if e, ok := src.FleetEpoch(); ok {
			fmt.Fprintf(cfg.out, "# fleet: committed epoch %d (source epoch %d), quarantined %v\n",
				e, plane.Epoch(), src.Quarantined())
		} else {
			fmt.Fprintln(cfg.out, "# fleet: no epoch committed")
		}
	}
	if cfg.hold > 0 {
		fmt.Fprintf(cfg.out, "# holding for %s (telemetry stays scrapeable)\n", cfg.hold)
		time.Sleep(cfg.hold)
	}
	return nil
}

// serveReplicas starts one distribution publisher per replica, so a
// nueagent fleet pointed at the full address list (comma-separated
// -connect) fails over between publishers when one dies. The -serve port seeds consecutive ports (:9411 -> :9411,
// :9412, ...); port 0 asks the kernel for an ephemeral port per replica.
// On error the publishers already started are closed.
func serveReplicas(cfg config, reg *telemetry.Registry) ([]*distrib.Source, error) {
	host, portStr, err := net.SplitHostPort(cfg.serve)
	if err != nil {
		return nil, fmt.Errorf("bad -serve %q: %w", cfg.serve, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("bad -serve port %q: %w", portStr, err)
	}
	var sources []*distrib.Source
	var addrs []string
	for r := 0; r < cfg.replicas; r++ {
		p := port
		if p != 0 {
			p += r
		}
		ln, err := net.Listen("tcp", net.JoinHostPort(host, strconv.Itoa(p)))
		if err != nil {
			for _, s := range sources {
				s.Close()
			}
			return nil, fmt.Errorf("replica %d listener: %w", r, err)
		}
		var tm *telemetry.DistribMetrics
		if r == 0 {
			tm = reg.Distrib() // one replica feeds the registry; names are not per-replica
		}
		replica := r
		src := distrib.NewSource(distrib.Options{
			Certify:   distrib.DefaultCertify,
			Telemetry: tm,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(cfg.out, "# [replica %d] "+format+"\n", append([]any{replica}, args...)...)
			},
		})
		go src.Serve(ln)
		sources = append(sources, src)
		addrs = append(addrs, ln.Addr().String())
	}
	fmt.Fprintf(cfg.out, "# distributing forwarding tables on %d publishers (connect with: nueagent -connect %s)\n",
		len(addrs), strings.Join(addrs, ","))
	return sources, nil
}

// serveTelemetry starts the observability endpoint: Prometheus text
// exposition on /metrics, the full registry snapshot on /telemetry.json,
// and the standard net/http/pprof handlers under /debug/pprof/. It
// returns the resolved listen address (useful with ":0").
func serveTelemetry(addr string, reg *telemetry.Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/telemetry.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, reg.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry server: %v\n", err)
		}
	}()
	return ln.Addr().String(), nil
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
