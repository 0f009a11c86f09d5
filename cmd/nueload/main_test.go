package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/topology"
)

// TestMain lets the tests run this binary as nueload itself: what they
// check is the process's exit status and what it leaves on stderr.
func TestMain(m *testing.M) {
	if os.Getenv("NUELOAD_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func nueload(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NUELOAD_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// TestReplayMismatchedTrace: a trace recorded on a larger topology names
// nodes the replay's network does not have. That is an error message and
// a non-zero exit, not an index-out-of-range panic on a worker goroutine.
func TestReplayMismatchedTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "big.trace")
	topo := []string{"-topo", "torus", "-terminals", "1", "-engine", "torus2qos"}
	if _, stderr, err := nueload(t, append(topo, "-dims", "4x4x2", "-flows", "3000", "-record", trace)...); err != nil {
		t.Fatalf("record: %v\n%s", err, stderr)
	}
	if _, stderr, err := nueload(t, append(topo, "-dims", "4x4x2", "-replay", trace)...); err != nil {
		t.Fatalf("replay on the recording's topology: %v\n%s", err, stderr)
	}
	_, stderr, err := nueload(t, append(topo, "-dims", "2x2x1", "-replay", trace)...)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("replay on a smaller topology: err %v, want exit status 1\n%s", err, stderr)
	}
	if !strings.HasPrefix(stderr, "flowsim: flow ") || !strings.Contains(stderr, "outside the network's 8 nodes") ||
		strings.Count(stderr, "\n") != 1 {
		t.Fatalf("stderr is not the one-line flow error:\n%s", stderr)
	}
}

// TestTopologyErrors: a name the topology roster does not have ("tree" was
// nueload's own name for the fat tree) or a -dims it cannot read is exit
// status 1 and the roster's one-line error, the same text nueroute,
// topogen and nuefm print.
func TestTopologyErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		name string
		p    topology.Params
	}{
		{[]string{"-topo", "tree"}, "tree", topology.Params{}},
		{[]string{"-topo", "mesh", "-dims", "4x4x4x4"}, "mesh", topology.Params{Dims: "4x4x4x4"}},
		{[]string{"-topo", "torus", "-dims", "4x0x4"}, "torus", topology.Params{Dims: "4x0x4"}},
	} {
		_, want := topology.ByName(c.name, c.p)
		stdout, stderr, err := nueload(t, c.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || stdout != "" || want == nil || stderr != want.Error()+"\n" {
			t.Errorf("nueload %s: err %v, stdout %q, stderr %q, want exit status 1 and %v",
				strings.Join(c.args, " "), err, stdout, stderr, want)
		}
	}
}
