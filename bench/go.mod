// The benchmark is a module of its own so that it builds from its own
// directory; the replace directive points it at the repository it
// measures, whose internal packages its import path (repro/bench) may
// import.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
