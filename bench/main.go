// Command bench is the repository's one measured pipeline: it drives the
// routing engine, the certifiers, the sharded control plane, the
// distribution plane and the fluid simulator from outside, through their
// exported functions and the callbacks they accept, checks every output,
// and prints end-to-end metrics (untraced run) or per-layer metrics
// (traced run). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runSeconds is how long one run measures unless -seconds says otherwise;
// BENCHMARK.json hands the same number to the driver.
const runSeconds = 15

// environment heads every result and trace file: numbers from different
// hosts, core counts or commits are not comparable.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Setups     int     `json:"setups"`
	Smoke      bool    `json:"smoke"`
}

func readEnvironment(c *runConfig) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown",
		Seed: c.seed, Seconds: c.seconds, Setups: c.setups, Smoke: c.size != fullSize,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (a source archive) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// resultFile is what -out accumulates: one entry per run, each under the
// environment it was made in.
type resultFile struct {
	Runs []recordedRun `json:"runs"`
}

type recordedRun struct {
	Env environment `json:"env"`
	runResult
}

func appendResult(path string, env environment, r *runResult) error {
	var f resultFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, recordedRun{env, *r})
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printResult prints every metric of a run by name, then the one-line
// JSON object a driver reads.
func printResult(r *runResult) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	fmt.Printf("## %s seed=%d trace=%v: %d ops attempted, %d failed, checkpoint %s\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Checkpoint)
	for _, e := range r.Errors {
		fmt.Printf("#  FAILED: %s\n", e)
	}
	type line struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]line, len(defs))
	for _, d := range defs {
		m := r.Metrics[d.Name]
		note := ""
		if d.Bound > 0 {
			note = fmt.Sprintf(" bound=%g%%", d.Bound*100)
		}
		if d.Exact {
			note += " exact"
		}
		fmt.Printf("%-30s %16.6g %-8s samples=%-5d %s is better%s\n", d.Name, m.Value, d.Unit, m.Samples, d.Better, note)
		metrics[d.Name] = line{m.Value, d.Unit}
	}
	fmt.Printf("%-30s %16.6g %-8s samples=%-5d lower is better bound=any increase\n",
		"failed_ops_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio", r.Attempted)
	out, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]line `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(out))
}

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all, in order)")
		seed    = flag.Int64("seed", 1, "seeds every input generator and the routing engine")
		seconds = flag.Float64("seconds", runSeconds, "how long the timed ops of one run last")
		trace   = flag.Int("trace", 0, "1: traced run (registry attached, spans, replays) printing the per-layer metrics; 0: end-to-end metrics")
		smoke   = flag.Bool("smoke", false, "tiny inputs and minimal op counts: a check that everything runs, not a measurement")
		outDir  = flag.String("outdir", "bench/out", "directory for trace files")
		out     = flag.String("out", "", "append this invocation's runs to a result file (input of -compare)")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		if !compareFiles(flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		fatal("unexpected arguments; see -h")
	}

	c := &runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, size: fullSize, setups: 3, outDir: *outDir}
	if *smoke {
		c.size, c.seconds, c.setups = smokeSize, 0, 1
	}
	run := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			var names []string
			for _, w := range workloads {
				names = append(names, w.Name)
			}
			fatal("unknown workload %q; have %s", *name, strings.Join(names, ", "))
		}
		run = []workloadDef{*w}
	}
	if c.trace {
		if err := os.MkdirAll(c.outDir, 0o755); err != nil {
			fatal("%v", err)
		}
	}

	env := readEnvironment(c)
	fmt.Printf("# env: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s seed=%d seconds=%g setups=%d smoke=%v\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.CPUModel, env.Commit, env.Seed, env.Seconds, env.Setups, env.Smoke)
	if env.NumCPU < 2 {
		fmt.Println("# WARNING: one CPU: worker-scaling numbers (core.route_w1_ms, flowsim.run_w1_ms) mean nothing on this host")
	}
	ok := true
	for i := range run {
		r, err := runWorkload(&run[i], c, env)
		if err != nil {
			fatal("%v", err)
		}
		if *out != "" {
			if err := appendResult(*out, env, r); err != nil {
				fatal("%v", err)
			}
		}
		printResult(r)
		ok = ok && r.Correct && r.Failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
