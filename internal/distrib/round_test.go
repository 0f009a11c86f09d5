package distrib

import "testing"

// TestTelemetryOffRoundTailAllocatesNothing holds the end of a round to
// the zero-overhead-when-off contract (DESIGN §10): with no telemetry
// bundle and no Logf, booking a committed round builds neither the
// distrib_round event nor the log line's arguments, so it allocates
// nothing.
func TestTelemetryOffRoundTailAllocatesNothing(t *testing.T) {
	s := NewSource(Options{})
	defer s.Close()
	target := &CompiledEpoch{Epoch: Epoch{Seq: 1 << 40}}
	if n := testing.AllocsPerRun(100, func() { s.endRound(target, 4, 3, true) }); n != 0 {
		t.Errorf("a round's tail with telemetry off makes %.0f allocations, want 0", n)
	}
}
