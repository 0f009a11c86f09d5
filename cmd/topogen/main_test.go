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

// TestMain lets the tests run this binary as topogen itself (the
// cmd/nueload pattern): what they check is the process's exit status, the
// file it writes and what it leaves on stderr.
func TestMain(m *testing.M) {
	if os.Getenv("TOPOGEN_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func topogen(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TOPOGEN_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

func ptr(v int) *int { return &v }

// TestWritesRosterFabric is the first half of README's pair
// `topogen -type torus -dims 3x3x2 -terminals 1 -out f` then
// `nueroute -topo f -algo nue -vcs 2`: the file holds exactly the roster's
// fabric, which cmd/nueroute's TestRoutesTopogenFile routes and verifies.
func TestWritesRosterFabric(t *testing.T) {
	file := filepath.Join(t.TempDir(), "t.topo")
	stdout, stderr, err := topogen(t, "-type", "torus", "-dims", "3x3x2", "-terminals", "1", "-out", file)
	if err != nil || stdout != "" || stderr != "torus-3x3x2: 18 switches, 18 terminals, 45 switch-switch links\n" {
		t.Fatalf("topogen -out: %v, stdout %q, stderr %q", err, stdout, stderr)
	}
	got, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topology.ByName("torus", topology.Params{Dims: "3x3x2", Terminals: ptr(1)})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := topology.Write(&want, tp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("topogen wrote\n%s\nwant\n%s", got, want.Bytes())
	}
}

// TestFamilyDefaults: -k and -levels are set only when given, so a bare
// family name is the roster's default instance and not the other
// family's sizes.
func TestFamilyDefaults(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-type", "kautz"}, "kautz-b3-k2: 12 switches, 48 terminals, 36 switch-switch links\n"},
		{[]string{"-type", "kautz", "-k", "2", "-levels", "3", "-redundancy", "2"}, "kautz-b2-k3: 12 switches, 48 terminals, 48 switch-switch links\n"},
		{[]string{"-type", "fattree"}, "4-ary 3-tree: 48 switches, 64 terminals, 128 switch-switch links\n"},
		{[]string{"-type", "fattree", "-k", "2", "-terminals", "1"}, "2-ary 3-tree: 12 switches, 4 terminals, 16 switch-switch links\n"},
		{[]string{"-type", "dragonfly"}, "dragonfly-a4-p2-h2-g9: 36 switches, 72 terminals, 90 switch-switch links\n"},
		{[]string{"-type", "dragonfly180"}, "dragonfly-a12-p6-h6-g15: 180 switches, 1080 terminals, 1515 switch-switch links\n"},
	} {
		if _, stderr, err := topogen(t, c.args...); err != nil || stderr != c.want {
			t.Errorf("topogen %s: %v, stderr %q, want %q", strings.Join(c.args, " "), err, stderr, c.want)
		}
	}
}

// TestFlagErrors: a size no generator accepts, a name no roster has, or a
// fault or group no fabric of that size can carry is exit status 1 and one
// line on stderr — for names and sizes the roster's error, the same text
// nueroute, nueload and nuefm print — not a panic.
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
		{[]string{"-type", "fattree", "-k", "1"}, rosterErr("fattree", topology.Params{K: ptr(1)})},
		{[]string{"-type", "kautz", "-k", "1"}, rosterErr("kautz", topology.Params{K: ptr(1)})},
		{[]string{"-type", "kautz", "-levels", "0"}, rosterErr("kautz", topology.Params{Levels: ptr(0)})},
		{[]string{"-type", "torus", "-dims", "4x4x4x4"}, rosterErr("torus", topology.Params{Dims: "4x4x4x4"})},
		{[]string{"-type", "torus", "-redundancy", "0"}, rosterErr("torus", topology.Params{Redundancy: ptr(0)})},
		{[]string{"-type", "tree"}, rosterErr("tree", topology.Params{})},
		{[]string{"-type", "ring", "-failswitch", "9999"}, "-failswitch 9999 names no switch of ring-125\n"},
		{[]string{"-type", "ring", "-switches", "4", "-terminals", "1", "-failswitch", "4"}, "-failswitch 4 names no switch of ring-4\n"},
		{[]string{"-type", "ring", "-faillinks", "1"}, "-faillinks 1 is not a fraction in [0,1)\n"},
		{[]string{"-type", "ring", "-faillinks", "-0.1"}, "-faillinks -0.1 is not a fraction in [0,1)\n"},
		{[]string{"-type", "ring", "-switches", "4", "-terminals", "1", "-groups", "2", "-group-size", "5"},
			"-group-size 5 is more than the connected terminals of ring-4\n"},
	} {
		stdout, stderr, err := topogen(t, c.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || stdout != "" || stderr != c.want {
			t.Errorf("topogen %s: err %v, stdout %q, stderr\n%swant exit status 1 and\n%s",
				strings.Join(c.args, " "), err, stdout, stderr, c.want)
		}
	}
}
