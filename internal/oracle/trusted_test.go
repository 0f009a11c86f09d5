package oracle_test

import (
	"bytes"
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// module is this repository's module path; moduleRoot is its directory
// seen from this package's.
const (
	module     = "repro"
	moduleRoot = "../.."
)

// TestTrustedBase pins what a certification trusts (DESIGN §11): the
// non-test import closure of each certifier holds no package of this
// module but graph, routing and the certifier itself, and no more
// non-test lines than its bound. The standard library is outside the
// count. It logs each closure's non-test lines.
func TestTrustedBase(t *testing.T) {
	bound := map[string]int{
		module + "/internal/oracle":         2730,
		module + "/internal/routing/verify": 2059,
	}
	for _, certifier := range []string{module + "/internal/oracle", module + "/internal/routing/verify"} {
		allowed := map[string]bool{
			certifier:                    true,
			module + "/internal/graph":   true,
			module + "/internal/routing": true,
		}
		via := importClosure(t, certifier)
		pkgs := make([]string, 0, len(via))
		for p := range via {
			pkgs = append(pkgs, p)
		}
		sort.Strings(pkgs)
		total := 0
		var counts []string
		for _, p := range pkgs {
			if !allowed[p] {
				t.Errorf("%s's closure holds %s (imported by %s): the trusted base is graph, routing and the certifier",
					certifier, p, via[p])
			}
			n := nonTestLines(t, p)
			total += n
			counts = append(counts, fmt.Sprintf("%s %d", strings.TrimPrefix(p, module+"/internal/"), n))
		}
		t.Logf("%s: %d non-test lines (%s)", certifier, total, strings.Join(counts, ", "))
		if total > bound[certifier] {
			t.Errorf("%s's closure has %d non-test lines, more than its bound of %d", certifier, total, bound[certifier])
		}
	}
}

// importClosure walks the module's packages that root imports from its
// non-test files, recursively, and maps each (root included) to the
// package that first imported it.
func importClosure(t *testing.T, root string) map[string]string {
	t.Helper()
	via := map[string]string{root: "(root)"}
	queue := []string{root}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, imp := range importPkg(t, p).Imports {
			if !strings.HasPrefix(imp, module+"/") {
				continue
			}
			if _, seen := via[imp]; !seen {
				via[imp] = p
				queue = append(queue, imp)
			}
		}
	}
	return via
}

func importPkg(t *testing.T, path string) *build.Package {
	t.Helper()
	pkg, err := build.ImportDir(filepath.Join(moduleRoot, strings.TrimPrefix(path, module+"/")), 0)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return pkg
}

// nonTestLines counts the lines of the package's non-test Go files.
func nonTestLines(t *testing.T, path string) int {
	t.Helper()
	pkg := importPkg(t, path)
	n := 0
	for _, f := range pkg.GoFiles {
		b, err := os.ReadFile(filepath.Join(pkg.Dir, f))
		if err != nil {
			t.Fatal(err)
		}
		n += bytes.Count(b, []byte{'\n'})
	}
	return n
}
