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

// TestMain lets the tests run this binary as nueroute itself (the
// cmd/nueload pattern): what they check is the process's exit status and
// what it leaves on stdout and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("NUEROUTE_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func nueroute(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NUEROUTE_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

func ptr(v int) *int { return &v }

// TestRoutesTopogenFile is the second half of README's pair
// `topogen -type torus -dims 3x3x2 -terminals 1 -out f` then
// `nueroute -topo f -algo nue -vcs 2`: cmd/topogen's TestWritesRosterFabric
// pins that the first command writes exactly these bytes.
func TestRoutesTopogenFile(t *testing.T) {
	tp, err := topology.ByName("torus", topology.Params{Dims: "3x3x2", Terminals: ptr(1)})
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "t.topo")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.Write(f, tp); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := nueroute(t, "-topo", file, "-algo", "nue", "-vcs", "2")
	if err != nil || stderr != "" {
		t.Fatalf("nueroute -topo: %v\n%s", err, stderr)
	}
	for _, want := range []string{
		"topology: torus-3x3x2 (18 switches, 18 terminals)\n",
		"verified: 306 source-destination pairs connected, deadlock-free (",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("no %q in:\n%s", want, stdout)
		}
	}
}

// TestGenEveryName: every name of the topology roster generates, routes
// and verifies, at the smallest sizes the families take.
func TestGenEveryName(t *testing.T) {
	for _, name := range topology.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // the three Table 1 instances take seconds under -race
			stdout, stderr, err := nueroute(t, "-gen", name, "-dims", "3x3x2", "-switches", "6", "-links", "8",
				"-terminals", "1", "-algo", "nue", "-vcs", "2", "-gamma=false")
			if err != nil || stderr != "" || !strings.Contains(stdout, "\nverified: ") {
				t.Errorf("nueroute -gen %s: %v\n%s%s", name, err, stderr, stdout)
			}
		})
	}
}

// TestFlagErrors: a size no generator accepts, or a name no roster has, is
// exit status 1 and one line on stderr — the roster's error, the same text
// topogen, nueload and nuefm print — not a generator's panic.
func TestFlagErrors(t *testing.T) {
	rosterErr := func(name string, p topology.Params) string {
		_, err := topology.ByName(name, p)
		if err == nil {
			t.Fatalf("ByName(%q, %+v) succeeds", name, p)
		}
		return err.Error() + "\n"
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-gen", "torus", "-dims", "0x1x1"}, rosterErr("torus", topology.Params{Dims: "0x1x1"})},
		{[]string{"-gen", "torus", "-dims", "4x4x4x4"}, rosterErr("torus", topology.Params{Dims: "4x4x4x4"})},
		{[]string{"-gen", "torus", "-terminals", "-1"}, rosterErr("torus", topology.Params{Terminals: ptr(-1)})},
		{[]string{"-gen", "ring", "-switches", "1"}, rosterErr("ring", topology.Params{Switches: ptr(1)})},
		{[]string{"-gen", "random", "-switches", "5", "-links", "1000"},
			rosterErr("random", topology.Params{Switches: ptr(5), Links: ptr(1000)})},
		{[]string{"-gen", "fullmesh", "-switches", "0"}, rosterErr("fullmesh", topology.Params{Switches: ptr(0)})},
		{[]string{"-gen", "tree"}, rosterErr("tree", topology.Params{})},
	} {
		stdout, stderr, err := nueroute(t, c.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || stdout != "" || stderr != c.want {
			t.Errorf("nueroute %s: err %v, stdout %q, stderr\n%swant exit status 1 and\n%s",
				strings.Join(c.args, " "), err, stdout, stderr, c.want)
		}
	}
}
