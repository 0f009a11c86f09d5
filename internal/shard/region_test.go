package shard

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// TestPartitionDragonflyGroups: on a Dragonfly the partition must keep
// every group whole, so the seam is exactly a subset of the global
// links — no intra-group (local) channel may cross a region boundary.
func TestPartitionDragonflyGroups(t *testing.T) {
	tp := topology.Dragonfly(4, 2, 2, 9) // 9 groups of 4 switches
	for _, n := range []int{2, 3, 4, 9} {
		r := Partition(tp, n)
		if r.N != n {
			t.Fatalf("n=%d: got %d regions", n, r.N)
		}
		group := func(sw graph.NodeID) string {
			name := tp.Net.Node(sw).Name
			return name[:strings.IndexByte(name, '-')]
		}
		byGroup := make(map[string]int)
		total := 0
		for _, sw := range tp.Net.Switches() {
			g := group(sw)
			if reg, seen := byGroup[g]; seen && reg != r.Of[sw] {
				t.Fatalf("n=%d: group %s split across regions %d and %d", n, g, reg, r.Of[sw])
			}
			byGroup[g] = r.Of[sw]
			total++
		}
		sum := 0
		for reg, size := range r.Sizes {
			if size == 0 {
				t.Fatalf("n=%d: region %d is empty", n, reg)
			}
			sum += size
		}
		if sum != total {
			t.Fatalf("n=%d: region sizes sum to %d, want %d switches", n, sum, total)
		}
		seam := 0
		for c := 0; c < tp.Net.NumChannels(); c++ {
			id := graph.ChannelID(c)
			if !r.Seam(id) {
				continue
			}
			seam++
			ch := tp.Net.Channel(id)
			if group(ch.From) == group(ch.To) {
				t.Fatalf("n=%d: seam channel %d is intra-group (%s)", n, id, group(ch.From))
			}
		}
		if seam == 0 {
			t.Fatalf("n=%d: no seam channels on a multi-region dragonfly", n)
		}
		if seam != r.SeamCount() {
			t.Fatalf("n=%d: counted %d seam channels, SeamCount says %d", n, seam, r.SeamCount())
		}
		// Terminals follow their switch.
		for _, term := range tp.Net.Terminals() {
			sw := attachedSwitch(tp.Net, term)
			if r.Of[term] != r.Of[sw] {
				t.Fatalf("n=%d: terminal %d in region %d, its switch %d in region %d",
					n, term, r.Of[term], sw, r.Of[sw])
			}
		}
	}
}

// TestPartitionTorusSlabs: a torus is cut into contiguous slabs along
// its largest dimension — region must be monotone in that coordinate.
func TestPartitionTorusSlabs(t *testing.T) {
	tp := topology.Torus3D(6, 3, 2, 1, 1)
	r := Partition(tp, 3)
	for _, sw := range tp.Net.Switches() {
		c := tp.Torus.Coord[sw]
		want := c[0] * 3 / 6 // x is the largest dimension
		if r.Of[sw] != want {
			t.Fatalf("switch %d at x=%d: region %d, want slab %d", sw, c[0], r.Of[sw], want)
		}
	}
}

// TestPartitionTreePods: level-0 switches form contiguous pods; every
// region gets leaves, and spines are spread over all regions.
func TestPartitionTreePods(t *testing.T) {
	tp := topology.KAryNTree(4, 2, 1)
	const n = 4
	r := Partition(tp, n)
	lastPod := -1
	leafRegions := make(map[int]bool)
	spineRegions := make(map[int]bool)
	for _, sw := range tp.Net.Switches() {
		if tp.Tree.Level[sw] == 0 {
			if r.Of[sw] < lastPod {
				t.Fatalf("leaf %d: region %d after region %d — pods not contiguous", sw, r.Of[sw], lastPod)
			}
			lastPod = r.Of[sw]
			leafRegions[r.Of[sw]] = true
		} else {
			spineRegions[r.Of[sw]] = true
		}
	}
	if len(leafRegions) != n {
		t.Fatalf("leaves cover %d of %d regions", len(leafRegions), n)
	}
	if len(spineRegions) < 2 {
		t.Fatalf("spines concentrated in %d region(s)", len(spineRegions))
	}
}

// TestPartitionFallbackAndClamp: an unstructured topology falls back to
// contiguous switch-ID blocks, and n is clamped to the switch count.
func TestPartitionFallbackAndClamp(t *testing.T) {
	tp := topology.RandomTopology(rand.New(rand.NewSource(5)), 10, 30, 1)
	r := Partition(tp, 64)
	if r.N != 10 {
		t.Fatalf("regions = %d, want clamp to 10 switches", r.N)
	}
	r = Partition(tp, 3)
	last := 0
	for _, sw := range tp.Net.Switches() {
		if r.Of[sw] < last {
			t.Fatalf("fallback blocks not contiguous: switch %d region %d after %d", sw, r.Of[sw], last)
		}
		last = r.Of[sw]
	}
}

// TestHomeRegion: single-region job sets resolve to that region; a
// region-spanning destination set escalates (-1).
func TestHomeRegion(t *testing.T) {
	tp := topology.Dragonfly(4, 2, 2, 9)
	r := Partition(tp, 4)
	net := tp.Net

	// All destinations of one region: home is that region.
	var reg0 []graph.NodeID
	for _, term := range net.Terminals() {
		if r.Of[term] == 0 {
			reg0 = append(reg0, term)
		}
	}
	if len(reg0) == 0 {
		t.Fatal("region 0 has no terminals")
	}
	if home := r.HomeRegion(reg0); home != 0 {
		t.Fatalf("home of region-0 terminals = %d, want 0", home)
	}

	// Destinations spanning regions escalate.
	var span []graph.NodeID
	for _, term := range net.Terminals() {
		if r.Of[term] != 0 {
			span = append(span, reg0[0], term)
			break
		}
	}
	if home := r.HomeRegion(span); home != -1 {
		t.Fatalf("home of cross-region destinations = %d, want -1", home)
	}
}
