package main

func Example() {
	main()
	// Output:
	// (injected 6 more link failures)
	// (injected 5 more link failures)
	// (injected 5 more link failures)
	// stage                       torus2qos   updn        lash        dfsssp      nue
	// stage 0 (torus-4x4x3)       ok(2vc)     ok(1vc)     ok(1vc)     ok(5vc)     ok(8vc)
	// stage 1 (torus-4x4x3-1sw)   ok(2vc)     ok(1vc)     ok(2vc)     ok(6vc)     ok(8vc)
	// stage 2 (torus-4x4x3-1sw-f6)ok(2vc)     ok(1vc)     ok(2vc)     ok(5vc)     ok(8vc)
	// stage 3 (torus-4x4x3-1sw-f6-f5)FAILS       ok(1vc)     ok(3vc)     ok(5vc)     ok(8vc)
	// stage 4 (torus-4x4x3-1sw-f6-f5-f5)FAILS       ok(1vc)     ok(3vc)     ok(6vc)     ok(8vc)
	//
	// Nue's applicability never degrades: deadlock freedom is enforced during
	// path computation, not repaired afterwards, so the VC budget always suffices.
}
