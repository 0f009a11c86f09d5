package stress

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/engines"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/oracle/exists"
	"repro/internal/routing"
	"repro/internal/routing/verify"
)

// Config selects one trial. The zero value of every field means
// "derive from the seed", so Config{Seed: n} is a full specification
// and the replay command only needs to pin what the caller pinned.
type Config struct {
	// Seed drives every random draw of the trial.
	Seed int64
	// Class fixes the topology family ("" rotates by seed, see ClassFor).
	Class Class
	// VCs fixes the virtual-channel budget (0 draws it, see DefaultVCs).
	VCs int
	// Engine restricts the differential run to one engine name ("" runs
	// every engine applicable to the generated topology).
	Engine string
	// Churn, when positive, additionally drives the online fabric
	// manager through that many random events with the oracle installed
	// as the post-check hook.
	Churn int
	// Workers bounds Nue's and the fabric manager's parallelism
	// (0 = GOMAXPROCS); the routing is identical for every value.
	Workers int
	// Decide additionally runs the existence decision procedure
	// (exists.Decide) and classifies the trial: ENGINE-BUG when the
	// topology is provably routable but no engine certified (hard
	// failure with a replay line), UNROUTABLE when no single-lane
	// routing exists and the budget is one lane.
	Decide bool
}

// Replay renders the cmd/nueverify invocation that reproduces this
// exact trial.
func (cfg Config) Replay() string {
	var b strings.Builder
	fmt.Fprintf(&b, "go run ./cmd/nueverify -trials 1 -seed %d", cfg.Seed)
	if cfg.Class != "" {
		fmt.Fprintf(&b, " -topo %s", cfg.Class)
	}
	if cfg.VCs != 0 {
		fmt.Fprintf(&b, " -vcs %d", cfg.VCs)
	}
	if cfg.Engine != "" {
		fmt.Fprintf(&b, " -engine %s", cfg.Engine)
	}
	if cfg.Churn != 0 {
		fmt.Fprintf(&b, " -churn %d", cfg.Churn)
	}
	if cfg.Decide {
		b.WriteString(" -decide")
	}
	return b.String()
}

// Outcome records one engine's run over the trial topology.
type Outcome struct {
	Engine string
	Claims routing.Claims
	// RouteErr is the engine's own refusal to route ("" when it routed).
	RouteErr string
	// Refuted is the oracle's violation ("" when the routing certified).
	Refuted string
	// Witness is the formatted dependency cycle for cycle refutations.
	Witness string
	// Cert carries the oracle's measurements (pairs walked, deps, ...).
	Cert *oracle.Certificate
}

// Certified reports whether the engine routed and the oracle certified.
func (o Outcome) Certified() bool { return o.RouteErr == "" && o.Refuted == "" }

// Trial is the result of Run: the generated instance, every engine's
// outcome, and the hard failures (empty = trial passed).
type Trial struct {
	Config   Config
	Class    Class
	Topology string
	Nodes    int
	VCs      int
	Outcomes []Outcome
	Churn    *ChurnReport
	Decide   *DecideReport
	// Failures are the hard violations: a claiming engine refuted, an
	// oracle/verify verdict disagreement, an invalid witness, a Nue
	// routing error, or a churn step rejected. Each line ends with the
	// replay command.
	Failures []string
}

// Failed reports whether the trial produced any hard failure.
func (tr *Trial) Failed() bool { return len(tr.Failures) > 0 }

func (tr *Trial) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	tr.Failures = append(tr.Failures, fmt.Sprintf("%s\n  replay: %s", msg, tr.Config.Replay()))
}

// Run executes one trial: generate the topology, route it with every
// selected engine, certify each routing with the oracle, cross-check
// the oracle's verdict against internal/routing/verify, and enforce
// the claims contract. With Config.Churn > 0 it then churns the fabric
// manager under the oracle post-check.
func Run(cfg Config) *Trial {
	class := cfg.Class
	if class == "" {
		class = ClassFor(cfg.Seed)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tp := Generate(class, rng)
	vcs := cfg.VCs
	if vcs == 0 {
		vcs = DefaultVCs(class, rng)
	}
	tr := &Trial{
		Config:   cfg,
		Class:    class,
		Topology: tp.Name,
		Nodes:    tp.Net.NumNodes(),
		VCs:      vcs,
	}
	matched := false
	for _, eng := range engines.Differential(tp, cfg.Seed, cfg.Workers) {
		if cfg.Engine != "" && eng.Name() != cfg.Engine {
			continue
		}
		matched = true
		tr.Outcomes = append(tr.Outcomes, tr.runEngine(tp.Net, eng, vcs))
	}
	if cfg.Engine != "" && !matched {
		tr.fail("engine %q is not applicable to topology %s (class %s)", cfg.Engine, tp.Name, class)
	}
	if cfg.Decide {
		tr.Decide = tr.runDecide(tp.Net, vcs)
	}
	// Churn drives Nue-based machinery, which is only in the roster of
	// symmetric networks.
	if cfg.Churn > 0 && tp.Net.Symmetric() {
		tr.Churn = tr.runChurn(tp, vcs, rng)
	}
	return tr
}

// DecideReport records the existence verdict and the trial's resulting
// classification.
type DecideReport struct {
	// Routable is the single-lane existence verdict.
	Routable bool
	// Exhaustive marks verdicts settled by exhaustive order search.
	Exhaustive bool
	// Pairs counts the switch-level pairs the procedure covered.
	Pairs int
	// TrapLen is the forced-dependency cycle length on refutation.
	TrapLen int
	// Classification is one of "routed", "engine-bug", "unroutable",
	// "ambiguous" or "contradiction" (the latter three: see runDecide).
	Classification string
}

// runDecide executes the existence decision procedure and classifies
// the trial:
//
//	routed         routable (or engines found a multi-lane routing)
//	engine-bug     provably routable, yet NO engine certified — hard
//	               failure with a replayable witness line
//	unroutable     no single-lane routing exists; budget was one lane
//	ambiguous      no single-lane routing exists, but the budget allows
//	               more lanes than the procedure decides for
//	contradiction  procedure says unroutable, an engine certified at
//	               one lane — hard failure (the procedure is unsound)
func (tr *Trial) runDecide(net *graph.Network, vcs int) *DecideReport {
	rep := &DecideReport{}
	dec, err := exists.Decide(net, exists.Options{Dests: destsOf(net)})
	if err != nil {
		rep.Classification = "undecided"
		tr.fail("existence procedure undecided on %s: %v", tr.Topology, err)
		return rep
	}
	rep.Routable, rep.Exhaustive, rep.Pairs, rep.TrapLen = dec.Routable, dec.Exhaustive, dec.Pairs, len(dec.Trap)
	certified := false
	singleLane := false
	for _, o := range tr.Outcomes {
		if o.Certified() {
			certified = true
			if o.Cert != nil && o.Cert.Layers <= 1 {
				singleLane = true
			}
		}
	}
	if dec.Routable {
		// The verdict must carry its own proof: the witness routing has
		// to certify at a one-lane budget.
		if _, cerr := oracle.Certify(net, dec.Witness, oracle.Options{MaxVCs: 1}); cerr != nil {
			tr.fail("existence witness for %s failed certification: %v", tr.Topology, cerr)
		}
		if certified {
			rep.Classification = "routed"
		} else {
			rep.Classification = "engine-bug"
			tr.fail("topology %s is provably routable (order over %d pairs) but no engine produced a certified routing",
				tr.Topology, dec.Pairs)
		}
		return rep
	}
	if dec.Trap != nil {
		if terr := exists.ValidateTrap(net, dec.Trap); terr != nil {
			tr.fail("existence trap for %s failed validation: %v", tr.Topology, terr)
		}
	}
	switch {
	case singleLane:
		rep.Classification = "contradiction"
		tr.fail("existence procedure declared %s unroutable at one lane, but an engine certified a single-lane routing",
			tr.Topology)
	case certified:
		rep.Classification = "routed" // multi-lane routing; consistent with single-lane impossibility
	case tr.VCs == 1:
		rep.Classification = "unroutable"
	default:
		rep.Classification = "ambiguous"
	}
	return rep
}

// runEngine routes the network with one engine and adjudicates the
// result: oracle certification, verifier cross-check, claims contract.
func (tr *Trial) runEngine(net *graph.Network, eng routing.Engine, vcs int) Outcome {
	out := Outcome{Engine: eng.Name(), Claims: routing.ClaimsOf(eng)}
	dests := destsOf(net)
	res, err := eng.Route(net, dests, vcs)
	if err != nil {
		out.RouteErr = err.Error()
		// Nue's existence guarantee (paper Lemma 3) holds for every
		// k >= 1 on any connected topology: a routing error is a bug,
		// not a budget refusal.
		if out.Engine == "nue" {
			tr.fail("nue refused to route %s with %d VCs: %v", tr.Topology, vcs, err)
		}
		return out
	}

	// The differential verdict: certify with internal checks only
	// (budget adjudication below is claims-aware) and require the
	// in-tree verifier to agree with the independent oracle.
	cert, oerr := oracle.Certify(net, res, oracle.Options{})
	out.Cert = cert
	_, verr := verify.Check(net, res, nil)
	if (oerr == nil) != (verr == nil) {
		tr.fail("oracle and verify disagree on %s (%s, %d VCs): oracle=%v verify=%v",
			out.Engine, tr.Topology, vcs, oerr, verr)
	}

	if oerr != nil {
		out.Refuted = oerr.Error()
		var cyc *oracle.CycleError
		if errors.As(oerr, &cyc) {
			out.Witness = formatWitness(cyc.Witness)
			if werr := oracle.ValidateWitness(net, cyc.Witness); werr != nil {
				tr.fail("oracle produced an invalid witness against %s: %v", out.Engine, werr)
			}
		}
		if out.Claims.HoldsAt(vcs) {
			tr.fail("%s claims deadlock freedom with %d VCs on %s but the oracle refutes it: %v",
				out.Engine, vcs, tr.Topology, oerr)
		}
		return out
	}
	// Certified — but an engine whose claim covers this budget must
	// also have stayed inside it.
	if out.Claims.HoldsAt(vcs) && cert.Layers > vcs {
		tr.fail("%s certified but used %d virtual layers against a budget of %d on %s",
			out.Engine, cert.Layers, vcs, tr.Topology)
	}
	return out
}

// destsOf is the harness-wide destination convention: terminals, or
// every switch on terminal-free networks.
func destsOf(net *graph.Network) []graph.NodeID {
	if d := net.Terminals(); len(d) > 0 {
		return d
	}
	return net.Switches()
}

func formatWitness(w []oracle.Dep) string {
	parts := make([]string, len(w))
	for i, d := range w {
		parts[i] = d.String()
	}
	return strings.Join(parts, " -> ")
}
