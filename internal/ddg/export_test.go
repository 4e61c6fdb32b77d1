package ddg

import "repro/internal/machine"

// RefRecMIIOfComponent is the map-based recurrence bound the dense
// Bellman-Ford in recMIIOfComponent replaced, kept as a test-only
// reference: node IDs index maps directly, and edges are filtered from
// the whole loop's edge list.
func RefRecMIIOfComponent(l *Loop, comp []int, model machine.CycleModel) int {
	inComp := make(map[int]bool, len(comp))
	for _, v := range comp {
		inComp[v] = true
	}
	type wedge struct {
		from, to, lat, dist int
	}
	var edges []wedge
	hi := 1
	for _, e := range l.Edges {
		if inComp[e.From] && inComp[e.To] {
			lat := model.Latency(l.Ops[e.From].Kind)
			edges = append(edges, wedge{e.From, e.To, lat, e.Dist})
			hi += lat
		}
	}
	if len(edges) == 0 {
		return 1
	}
	dist := make(map[int]int, len(comp))
	feasible := func(ii int) bool {
		for _, v := range comp {
			dist[v] = 0
		}
		for pass := 0; pass < len(comp); pass++ {
			changed := false
			for _, e := range edges {
				w := e.lat - ii*e.dist
				if d := dist[e.from] + w; d > dist[e.to] {
					dist[e.to] = d
					changed = true
				}
			}
			if !changed {
				return true
			}
		}
		for _, e := range edges {
			w := e.lat - ii*e.dist
			if dist[e.from]+w > dist[e.to] {
				return false
			}
		}
		return true
	}
	lo := 1
	for lo < hi {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
