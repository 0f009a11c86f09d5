package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
)

// verdict applies a metric's bound to two sets of runs, a the parent's
// and b the change's. b is "worse" when its median is worse than a's by
// more than bound; but where either set's own quartile spread is wider
// than the bound the metric is "unresolved", unless every run of b reads
// better than every run of a.
func verdict(a, b []float64, better string, bound float64) (string, float64, float64) {
	ma, mb := median(a), median(b)
	worseBy := 0.0 // share of a's median by which b is worse
	if ma != 0 {
		worseBy = (mb - ma) / ma
		if better == "higher" {
			worseBy = -worseBy
		}
	}
	spread := max(quartileSpread(a), quartileSpread(b))
	if spread > bound {
		lo, hi := a, b // every hi must exceed every lo for b to be strictly better
		if better == "lower" {
			lo, hi = b, a
		}
		if slices.Min(hi) > slices.Max(lo) {
			return "same", worseBy, spread
		}
		return "unresolved", worseBy, spread
	}
	if worseBy > bound {
		return "worse", worseBy, spread
	}
	return "same", worseBy, spread
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one verdict per (workload, end-to-end metric) pair
// the two result files share, then checks that every exact count reads
// the same in every run of the same workload and seed. It returns false
// when a metric is worse, a count differs or a recorded run had failed.
func compareFiles(pathA, pathB string) bool {
	fa, err := loadResults(pathA)
	if err != nil {
		fatal("%v", err)
	}
	fb, err := loadResults(pathB)
	if err != nil {
		fatal("%v", err)
	}
	values := func(f *resultFile, workload, metric string) []float64 {
		var out []float64
		for _, r := range f.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}

	ok := true
	fmt.Printf("%-18s %-16s %12s %12s %8s %8s %6s %5s  %s\n", "workload", "metric", "a median", "b median", "worse by", "spread", "bound", "runs", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := values(fa, w.Name, d.Name), values(fb, w.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worseBy, spread := verdict(a, b, d.Better, d.Bound)
			fmt.Printf("%-18s %-16s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%% %2d/%-2d  %s\n",
				w.Name, d.Name, median(a), median(b), worseBy*100, spread*100, d.Bound*100, len(a), len(b), v)
			ok = ok && v != "worse"
		}
	}

	// Exact counts: one value per (workload, seed, metric) across both files.
	type key struct {
		workload, metric string
		seed             int64
	}
	seen := make(map[key]map[float64]bool)
	var differ []string
	for _, f := range []*resultFile{fa, fb} {
		for _, r := range f.Runs {
			if r.Failed > 0 || !r.Correct {
				differ = append(differ, fmt.Sprintf("%s seed=%d trace=%v: %d failed ops, correct=%v", r.Workload, r.Seed, r.Trace, r.Failed, r.Correct))
			}
			for name, m := range r.Metrics {
				if m.Exact && !r.Env.Smoke {
					k := key{r.Workload, name, r.Seed}
					if seen[k] == nil {
						seen[k] = make(map[float64]bool)
					}
					seen[k][m.Value] = true
				}
			}
		}
	}
	for k, vals := range seen {
		if len(vals) > 1 {
			differ = append(differ, fmt.Sprintf("%s %s seed=%d: %d different values", k.workload, k.metric, k.seed, len(vals)))
		}
	}
	sort.Strings(differ)
	for _, d := range differ {
		fmt.Println("MISMATCH", d)
	}
	fmt.Printf("exact counts: %d (workload, seed, metric) triples, %d differ\n", len(seen), len(differ))
	return ok && len(differ) == 0
}
