// Command nueverify is the randomized stress and differential-testing
// front end of the independent routing oracle (internal/oracle). Each
// trial generates a seeded random topology, routes it with every
// applicable engine (Nue, Up*/Down*, LASH, DFSSSP, MinHop, the exists
// witness engine, and ftree / DOR / torus2qos / angara / fullmesh where
// metadata allows), certifies every routing from first principles, and
// cross-checks the oracle's verdict against the in-tree verifier.
// Engines that claim deadlock freedom and are refuted are hard
// failures; refuting the negative baselines (plain DOR on a ring,
// MinHop) is the expected outcome that proves the oracle has teeth — a
// vacuity control enforces it before any trial runs.
//
// With -decide every trial additionally runs the existence decision
// procedure (the Mendlovic–Matias condition: a deadlock-free routing
// exists iff some linear channel order serves every pair increasingly)
// and classifies the trial: "routed" when engines and procedure agree a
// routing exists, "engine-bug" (hard failure) when the topology is
// provably routable yet no engine certified, "unroutable" when no
// single-lane routing exists at a one-lane budget. Routable verdicts
// carry an oracle-certified witness routing; refutations carry a
// validated forced-dependency trap. No refutation is ever left
// unclassified.
//
// Usage:
//
//	nueverify -trials 100                       # differential sweep, all classes
//	nueverify -trials 100 -decide               # + existence frontier adjudication
//	nueverify -trials 20 -topo torus -churn 25  # + fabric churn under the oracle
//	nueverify -trials 20 -mcast-groups 6        # + cast trees certified over the union,
//	                                            #   with a cyclic-table negative control
//	nueverify -seed 42 -trials 1                # replay one trial exactly
//	nueverify -topo ring -vcs 1 -engine dor     # targeted refutation (exit 1, witness printed)
//
// Every failure line ends with the exact replay command. Exit status: 0
// when every trial passed (and, in targeted mode, the selected engine
// certified), 1 on refutation or harness failure, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/engines"
	"repro/internal/oracle/stress"
)

func main() {
	var (
		trials   = flag.Int("trials", 20, "number of seeded trials")
		seed     = flag.Int64("seed", 1, "first seed; trial i uses seed+i")
		topo     = flag.String("topo", "", "fix the topology class: random, regular, torus, fattree, kautz, ring, fullmesh, dfgroup, oneway (empty = rotate)")
		engine   = flag.String("engine", "", "restrict to one engine: "+strings.Join(engines.DifferentialNames(), ", ")+" (empty = all)")
		vcs      = flag.Int("vcs", 0, "fix the virtual-channel budget (0 = draw per seed)")
		decide   = flag.Bool("decide", false, "run the existence decision procedure per trial and classify refutations as ENGINE-BUG vs GENUINELY-UNROUTABLE")
		churn    = flag.Int("churn", 0, "additionally drive the fabric manager through this many random events per trial")
		mcGroups = flag.Int("mcast-groups", 0, "additionally route this many seeded multicast groups per trial and adjudicate the cast union (plus a cyclic-table negative control)")
		mcSize   = flag.Int("mcast-size", 0, "members per multicast group (0 = 4)")
		workers  = flag.Int("workers", 0, "worker budget for Nue and the fabric manager (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "print every engine outcome, not just refutations")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	if *topo != "" && !slices.Contains(stress.Classes(), stress.Class(*topo)) {
		fmt.Fprintf(os.Stderr, "unknown -topo %q (valid: %v)\n", *topo, stress.Classes())
		os.Exit(2)
	}
	if *engine != "" && !slices.Contains(engines.DifferentialNames(), *engine) {
		fmt.Fprintf(os.Stderr, "unknown -engine %q (valid: %v)\n", *engine, engines.DifferentialNames())
		os.Exit(2)
	}

	targeted := *engine != ""
	if !targeted {
		if !vacuityControl() {
			os.Exit(1)
		}
	}

	var failures []string
	certified, refuted, trialsRun := 0, 0, 0
	decisions := map[string]int{}
	for i := 0; i < *trials; i++ {
		cfg := stress.Config{
			Seed:        *seed + int64(i),
			Class:       stress.Class(*topo),
			VCs:         *vcs,
			Engine:      *engine,
			Decide:      *decide,
			Churn:       *churn,
			McastGroups: *mcGroups,
			McastSize:   *mcSize,
			Workers:     *workers,
		}
		tr := stress.Run(cfg)
		trialsRun++
		printTrial(tr, *verbose)
		failures = append(failures, tr.Failures...)
		if tr.Decide != nil {
			decisions[tr.Decide.Classification]++
		}
		for _, o := range tr.Outcomes {
			switch {
			case o.Certified():
				certified++
			case o.Refuted != "":
				refuted++
				// In targeted mode a refutation is the trial's verdict:
				// surface the witness and fail the run.
				if targeted {
					fmt.Printf("  REFUTED %s on %s (%d VCs): %s\n", o.Engine, tr.Topology, tr.VCs, o.Refuted)
					if o.Witness != "" {
						fmt.Printf("  witness cycle: %s\n", o.Witness)
					}
					failures = append(failures, fmt.Sprintf("%s refuted on %s\n  replay: %s", o.Engine, tr.Topology, cfg.Replay()))
				}
			}
		}
	}

	fmt.Printf("\n%d trials: %d routings certified, %d refuted, %d hard failures\n",
		trialsRun, certified, refuted, len(failures))
	if *decide {
		fmt.Printf("existence frontier: %d routed, %d engine-bug, %d unroutable, %d other\n",
			decisions["routed"], decisions["engine-bug"], decisions["unroutable"],
			trialsRun-decisions["routed"]-decisions["engine-bug"]-decisions["unroutable"])
	}
	if len(failures) > 0 {
		fmt.Println("\nFAILURES:")
		for _, f := range failures {
			fmt.Println("- " + f)
		}
		os.Exit(1)
	}
}

// vacuityControl proves the oracle has teeth before trusting any green
// trial: plain DOR on a one-VC ring must be refuted with a concrete
// dependency cycle, and Nue on the same instance must certify. An
// oracle that waves DOR through certifies nothing.
func vacuityControl() bool {
	tr := stress.Run(stress.Config{Seed: 7, Class: stress.ClassRing, VCs: 1})
	var dor, nue *stress.Outcome
	for i := range tr.Outcomes {
		switch tr.Outcomes[i].Engine {
		case "dor":
			dor = &tr.Outcomes[i]
		case "nue":
			nue = &tr.Outcomes[i]
		}
	}
	switch {
	case tr.Failed():
		fmt.Println("vacuity control failed:")
		for _, f := range tr.Failures {
			fmt.Println("- " + f)
		}
	case dor == nil || nue == nil:
		fmt.Println("vacuity control failed: ring roster is missing dor or nue")
	case !nue.Certified():
		fmt.Printf("vacuity control failed: nue did not certify on the control ring (route=%q refuted=%q)\n",
			nue.RouteErr, nue.Refuted)
	case dor.Refuted == "" || dor.Witness == "":
		fmt.Println("vacuity control failed: the oracle passed plain DOR on a one-VC ring — the checker is vacuous")
	default:
		fmt.Printf("control: dor on %s (1 VC) refuted as expected\n  witness cycle: %s\n", tr.Topology, dor.Witness)
		return true
	}
	return false
}

func printTrial(tr *stress.Trial, verbose bool) {
	fmt.Printf("seed %-4d %-8s %-22s vcs=%d:", tr.Config.Seed, tr.Class, tr.Topology, tr.VCs)
	for _, o := range tr.Outcomes {
		switch {
		case o.Certified():
			fmt.Printf(" %s:ok", o.Engine)
		case o.RouteErr != "":
			fmt.Printf(" %s:no-route", o.Engine)
		default:
			fmt.Printf(" %s:refuted", o.Engine)
		}
	}
	if tr.Decide != nil {
		fmt.Printf(" decide:%s", tr.Decide.Classification)
	}
	if tr.Churn != nil {
		fmt.Printf(" churn:%d/%d", tr.Churn.Certified, tr.Churn.Events)
	}
	if tr.Mcast != nil {
		adv := "adv:refuted"
		if tr.Mcast.AdversarialSkipped {
			adv = "adv:skipped"
		} else if !tr.Mcast.AdversarialRefuted {
			adv = "adv:PASSED-CYCLIC"
		}
		fmt.Printf(" mcast:%dg/%de/%s", tr.Mcast.Groups, tr.Mcast.TreeEdges, adv)
	}
	fmt.Println()
	if verbose {
		for _, o := range tr.Outcomes {
			switch {
			case o.RouteErr != "":
				fmt.Printf("    %s: route refused: %s\n", o.Engine, o.RouteErr)
			case o.Refuted != "":
				fmt.Printf("    %s: %s\n", o.Engine, o.Refuted)
				if o.Witness != "" {
					fmt.Printf("    %s witness: %s\n", o.Engine, o.Witness)
				}
			case o.Cert != nil:
				fmt.Printf("    %s: certified (%d pairs, %d deps, %d layers, max %d hops)\n",
					o.Engine, o.Cert.Pairs, o.Cert.Deps, o.Cert.Layers, o.Cert.MaxHops)
			}
		}
	}
}
