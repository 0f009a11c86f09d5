package lash

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/updn"
)

// TOREngine implements LASH-TOR (Skeie, Lysne, Flich, López, Robles,
// Duato, ICPADS'04): LASH, except that paths which fit no ordinary layer
// are routed with Up*/Down* in the last virtual layer instead of failing.
// Because Up*/Down* paths are mutually deadlock-free, the reserved layer
// stays acyclic no matter how many overflow paths land in it — LASH-TOR is
// therefore always applicable, at the price of non-minimal overflow paths
// and, as the paper notes (§6), of losing the destination-based property
// in the general case: overflow pairs carry explicit source routes
// (routing.Result.PairPath), which InfiniBand cannot express but
// source-routed technologies can.
type TOREngine struct{}

// Name implements routing.Engine.
func (TOREngine) Name() string { return "lashtor" }

// Claims implements routing.Claimant: LASH-TOR falls back to the escape
// layer instead of overflowing, staying acyclic per layer.
func (TOREngine) Claims() routing.Claims { return routing.Claims{DeadlockFree: true, MinVCs: 1} }

// Route implements routing.Engine.
func (e TOREngine) Route(net *graph.Network, dests []graph.NodeID, maxVCs int) (*routing.Result, error) {
	if maxVCs < 1 {
		return nil, errors.New("lashtor: need at least one virtual channel")
	}
	// Plain LASH within the budget wins when it fits: the result stays
	// destination-based.
	res, failed, destsBySwitch, err := routeLASH(net, dests, maxVCs)
	if err != nil {
		return nil, fmt.Errorf("lashtor: %w", err)
	}
	if len(failed) == 0 {
		res.Algorithm = "lashtor"
		return res, nil
	}
	// Re-place with the last layer reserved for Up*/Down* overflow.
	normalLayers := maxVCs - 1
	if normalLayers >= 1 {
		res, failed, destsBySwitch, err = routeLASH(net, dests, normalLayers)
		if err != nil {
			return nil, fmt.Errorf("lashtor: %w", err)
		}
	} else {
		// One VC total: everything overflows into the Up*/Down* layer.
		failed = allPairs(net, destsBySwitch)
	}
	udRes, err := (updn.Engine{}).Route(net, dests, 1)
	if err != nil {
		return nil, fmt.Errorf("lashtor: escape Up*/Down*: %w", err)
	}
	overflowLayer := uint8(maxVCs - 1)
	res.Algorithm = "lashtor"
	res.VCs = maxVCs
	res.PairPath = make(map[uint64][]graph.ChannelID)
	overflow := 0
	for _, fp := range failed {
		// Every traffic source attached to the failed source switch gets
		// an explicit Up*/Down* route to every destination of the failed
		// destination switch.
		for _, src := range attachedSources(net, fp.src) {
			for _, d := range destsBySwitch[fp.dst] {
				if src == d {
					continue
				}
				p, err := routing.Walk(net, udRes, src, d, nil)
				if err != nil {
					return nil, fmt.Errorf("lashtor: overflow path %d->%d: %w", src, d, err)
				}
				res.PairPath[routing.PairKey(src, d)] = p
				res.PairLayer[src][res.Table.DestIndex(d)] = overflowLayer
				overflow++
			}
		}
	}
	res.Stats = map[string]float64{"overflow_paths": float64(overflow)}
	return res, nil
}

// attachedSources lists a switch and its terminals.
func attachedSources(net *graph.Network, sw graph.NodeID) []graph.NodeID {
	out := []graph.NodeID{sw}
	for _, c := range net.Out(sw) {
		if t := net.Channel(c).To; net.IsTerminal(t) {
			out = append(out, t)
		}
	}
	return out
}

// allPairs enumerates every switch pair as failed (the k = 1 case).
func allPairs(net *graph.Network, destsBySwitch map[graph.NodeID][]graph.NodeID) []swPair {
	var out []swPair
	for _, s := range net.Switches() {
		if net.Degree(s) == 0 {
			continue
		}
		for dstSw := range destsBySwitch {
			if s != dstSw {
				out = append(out, swPair{src: s, dst: dstSw})
			}
		}
	}
	return out
}
