package main

func Example() {
	main()
	// Output:
	// topology: torus-3x3x3 — 27 switches, 54 terminals
	// routing:  nue uses 1 virtual layer(s)
	// stats:    0 escape fallbacks, 888 cycle searches, 155 blocked dependencies
	// verified: 2862 pairs connected, deadlock-free, longest path 7 hops
	// route 27 -> 80 (5 hops): 0 2 8 26 80
	// balance:  γ min 6 / avg 36.6 ± 11.2 / max 78
}
