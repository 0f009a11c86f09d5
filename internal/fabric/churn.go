package fabric

import (
	"math/rand"
	"sort"

	"repro/internal/bfs"
	"repro/internal/graph"
)

// RandomEvent draws the next link-churn event: with probability pJoin it
// restores a previously failed link (when one exists), otherwise it fails
// a random alive switch-to-switch link whose removal keeps the network
// connected. It returns false when no event is possible (no failable link
// and nothing to restore). The manager is not modified; feed the event to
// Apply.
func (m *Manager) RandomEvent(rng *rand.Rand, pJoin float64) (Event, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st.RandomEvent(rng, pJoin)
}

// RandomEvent draws the next link-churn event against the state's working
// network (see Manager.RandomEvent). The state is not modified. The caller
// owns serialization.
func (s *State) RandomEvent(rng *rand.Rand, pJoin float64) (Event, bool) {
	down := s.downLinks()
	if len(down) > 0 && rng.Float64() < pJoin {
		return Event{Kind: LinkJoin, Link: down[rng.Intn(len(down))]}, true
	}

	var alive []graph.ChannelID
	for c := 0; c < s.working.NumChannels(); c++ {
		id := graph.ChannelID(c)
		ch := s.working.Channel(id)
		if canonical(s.working, id) != id || ch.Failed {
			continue
		}
		if s.working.IsSwitch(ch.From) && s.working.IsSwitch(ch.To) {
			alive = append(alive, id)
		}
	}
	rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for _, c := range alive {
		// Probe on the working copy and revert: Apply will redo the flip.
		s.working.SetChannelFailed(c, true)
		ok := bfs.Connected(s.working)
		s.working.SetChannelFailed(c, false)
		if ok {
			return Event{Kind: LinkFail, Link: c}, true
		}
	}
	if len(down) > 0 {
		return Event{Kind: LinkJoin, Link: down[rng.Intn(len(down))]}, true
	}
	return Event{}, false
}

// RandomSwitchEvent draws a switch-churn event: with probability pJoin it
// rejoins a down switch (when one exists), otherwise it fails a random
// switch whose removal keeps the remaining switch fabric connected.
func (m *Manager) RandomSwitchEvent(rng *rand.Rand, pJoin float64) (Event, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st.RandomSwitchEvent(rng, pJoin)
}

// RandomSwitchEvent draws a switch-churn event against the state's working
// network (see Manager.RandomSwitchEvent). The state is not modified.
func (s *State) RandomSwitchEvent(rng *rand.Rand, pJoin float64) (Event, bool) {
	downSw := s.downSwitches()
	if len(downSw) > 0 && rng.Float64() < pJoin {
		return Event{Kind: SwitchJoin, Node: downSw[rng.Intn(len(downSw))]}, true
	}

	var alive []graph.NodeID
	for _, sw := range s.working.Switches() {
		if !s.nodeDown[sw] && s.working.Degree(sw) > 0 {
			alive = append(alive, sw)
		}
	}
	rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	for _, sw := range alive {
		var flipped []graph.ChannelID
		for _, link := range s.links[sw] {
			if !s.working.Channel(link).Failed {
				s.working.SetChannelFailed(link, true)
				flipped = append(flipped, link)
			}
		}
		ok := bfs.Connected(s.working)
		for _, link := range flipped {
			s.working.SetChannelFailed(link, false)
		}
		if ok {
			return Event{Kind: SwitchFail, Node: sw}, true
		}
	}
	if len(downSw) > 0 {
		return Event{Kind: SwitchJoin, Node: downSw[rng.Intn(len(downSw))]}, true
	}
	return Event{}, false
}

// sortChannels keeps map-iteration randomness out of the event draw so
// runs are reproducible per seed.
func sortChannels(s []graph.ChannelID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
