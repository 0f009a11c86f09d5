package main

func Example() {
	main()
	// Output:
	// network: random-64-384 — 64 switches, 256 terminals, hardware VLs: 8
	//
	// budget    routing   DL-free VLs   VLs for QoS   note
	// 8         dfsssp    4             4             ok
	// 8         lash      2             6             ok
	// 8         nue       8             0             ok
	//
	// 4         dfsssp    4             4             ok
	// 4         lash      2             6             ok
	// 4         nue       4             4             ok
	//
	// 2         dfsssp    -             -             inapplicable: budget exceeded
	// 2         lash      2             6             ok
	// 2         nue       2             6             ok
	//
	// 1         dfsssp    -             -             inapplicable: budget exceeded
	// 1         lash      -             -             inapplicable: budget exceeded
	// 1         nue       1             7             ok
	//
	// Nue accepts any budget down to a single VL: the freed lanes can carry
	// QoS classes. DFSSSP/LASH lose the topology once their demand exceeds it.
}
