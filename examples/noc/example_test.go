package main

func Example() {
	main()
	// Output:
	// die: mesh-8x8 — 64 routers, 64 tiles
	//
	// routing   VCs     throughput(flits/cyc) avg latency(cyc)  note
	// dor       1       15.515                73.1              ok
	// nue       1       9.846                 81.7              ok
	//
	// after disabling the router at (3,3):
	// dor       dor: no fault-free dimension-order path [0 4 0] -> [3 0 0]: no detour around fault
	// nue       1       7.551                 104.3             ok
	//
	// Nue needs no topology knowledge and no extra VCs to survive the fault;
	// its deadlock freedom comes from the dependency-graph search itself.
}
