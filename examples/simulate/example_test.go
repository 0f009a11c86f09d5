package main

func Example() {
	main()
	// Output:
	// network: dragonfly-a6-p4-h3-g10 — 60 switches, 240 terminals
	//
	// routing     VCs     throughput(flits/cyc) ~GB/s     note
	// updn        1       14.346                57.4      ok
	// lash        2       17.916                71.7      ok
	// dfsssp      3       17.143                68.6      ok
	// nue         8       25.043                100.2     ok
	//
	// unsafe counter-example (minhop on a 5x5 torus, single VL, tiny buffers):
	//   verifier: verify: cyclic channel dependency graph on VLs [0] (deadlock possible)
	//   simulator: delivered 101/2450 messages, deadlocked=true
}
