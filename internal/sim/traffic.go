package sim

import (
	"math/rand"

	"repro/internal/graph"
)

// AllToAllShift generates the paper's traffic pattern: every terminal
// sends one message to every other terminal, ordered by shift distance
// (in phase p, terminal i addresses terminal (i+p) mod T). phases limits
// the number of shift distances (0 or >= T means the full all-to-all).
func AllToAllShift(terminals []graph.NodeID, phases int) []Message {
	t := len(terminals)
	if phases <= 0 || phases >= t {
		phases = t - 1
	}
	msgs := make([]Message, 0, t*phases)
	// Interleave by phase so that all terminals progress through the same
	// shift distance together, like the exchange pattern of the paper's
	// simulator.
	for p := 1; p <= phases; p++ {
		for i := 0; i < t; i++ {
			msgs = append(msgs, Message{Src: terminals[i], Dst: terminals[(i+p)%t]})
		}
	}
	return msgs
}

// UniformRandom generates n messages with uniformly random source and
// destination terminals (src != dst).
func UniformRandom(terminals []graph.NodeID, n int, rng *rand.Rand) []Message {
	msgs := make([]Message, 0, n)
	t := len(terminals)
	for len(msgs) < n && t > 1 {
		i := rng.Intn(t)
		j := rng.Intn(t - 1)
		if j >= i {
			j++
		}
		msgs = append(msgs, Message{Src: terminals[i], Dst: terminals[j]})
	}
	return msgs
}

// Bisection generates traffic across a node split: terminal i of the
// first half exchanges messages with terminal i of the second half,
// repeated rounds times.
func Bisection(terminals []graph.NodeID, rounds int) []Message {
	half := len(terminals) / 2
	var msgs []Message
	for r := 0; r < rounds; r++ {
		for i := 0; i < half; i++ {
			msgs = append(msgs, Message{Src: terminals[i], Dst: terminals[half+i]})
			msgs = append(msgs, Message{Src: terminals[half+i], Dst: terminals[i]})
		}
	}
	return msgs
}
