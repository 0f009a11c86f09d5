package main

import (
	_ "embed"
	"encoding/json"
)

// goldenSeed is the seed golden.json pins checkpoints for.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// checkGolden holds a full-size run at the golden seed against the
// checkpoint golden.json pins for its workload: the table digests of a
// cold workload's warm-up and first countOps ops folded together, the
// epoch and table digest a churn workload has reached after countOps ops,
// (events, recomputes, makespan) of each traffic pattern. A change that buys speed by changing outputs fails here.
func checkGolden(c *runConfig, r *runResult) {
	if c.seed != goldenSeed || c.size != fullSize {
		return
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		r.fail("golden.json: %v", err)
		return
	}
	if want := golden[r.Workload]; r.Checkpoint != want {
		r.fail("checkpoint %q, golden.json pins %q", r.Checkpoint, want)
	}
}
