package xport

// Broadcast-tree routing. An endpoint ships payloads from node 0 (the
// issuing node of the paper's non-DCR pipeline, §5) through the same binary
// broadcast tree internal/machine charges for: node i's children are 2i+1
// and 2i+2, so every route is O(log N) hops.
//
// Node death degrades the tree gracefully. A route never relays through a
// dead node: each node's effective parent is its nearest surviving ancestor
// in the original tree, so the orphaned subtree of a killed interior node
// re-parents as a unit and the tree depth never grows. When the tree is too
// degraded to be worth maintaining — fewer than half the configured nodes
// survive — routing falls back to direct node-0 sends, trading the O(log N)
// fan-out for not depending on any interior relay.

// origParent returns node n's parent in the intact broadcast tree.
func origParent(n int) int { return (n - 1) / 2 }

// liveParent returns n's nearest surviving ancestor, walking up the intact
// tree; node 0 is always its own terminus.
func liveParent(n int, alive []bool) int {
	p := origParent(n)
	for p > 0 && !alive[p] {
		p = origParent(p)
	}
	return p
}

// TreeShape is a point-in-time view of the broadcast tree for live
// introspection (/statusz): each node's effective parent under the current
// liveness snapshot, the resulting relay depth, and whether the next
// broadcast would abandon the tree for direct node-0 sends.
type TreeShape struct {
	// Parents[i] is node i's effective parent: its nearest surviving
	// ancestor, or -1 for node 0 and for dead nodes.
	Parents []int `json:"parents"`
	// Depth is the maximum relay-chain length from node 0 to any live node.
	Depth int `json:"depth"`
	// Direct reports that fewer than half the nodes survive, so broadcasts
	// bypass the tree.
	Direct bool `json:"direct"`
	// Live is the number of surviving nodes.
	Live int `json:"live"`
}

// ShapeOf computes the broadcast tree's shape for a liveness snapshot.
func ShapeOf(alive []bool) TreeShape {
	sh := TreeShape{Parents: make([]int, len(alive))}
	for _, a := range alive {
		if a {
			sh.Live++
		}
	}
	sh.Direct = sh.Live*2 < len(alive)
	for n := range alive {
		sh.Parents[n] = -1
		if n == 0 || !alive[n] {
			continue
		}
		if sh.Direct {
			sh.Parents[n] = 0
			sh.Depth = 1
			continue
		}
		sh.Parents[n] = liveParent(n, alive)
		hops := 0
		for p := n; p != 0; p = liveParent(p, alive) {
			hops++
		}
		if hops > sh.Depth {
			sh.Depth = hops
		}
	}
	return sh
}

// RoutePlan is one broadcast's routing decision, computed from a liveness
// snapshot before any message moves so that every hop targets a node known
// live at plan time.
type RoutePlan struct {
	// Routes maps each destination to its relay chain from node 0: every
	// interior entry is a live relay, the final entry is the destination.
	Routes map[int][]int
	// Reparents counts live non-root nodes whose original parent is dead —
	// the orphan adoptions this plan performs.
	Reparents int
	// Direct reports that the tree was abandoned for direct node-0 sends.
	Direct bool
}

// PlanRoutes computes the routing for one broadcast over the given liveness
// snapshot. Destinations must be live, non-zero node ids.
func PlanRoutes(alive []bool, dsts []int) RoutePlan {
	plan := RoutePlan{Routes: make(map[int][]int, len(dsts))}
	live := 0
	for _, a := range alive {
		if a {
			live++
		}
	}
	for n := 1; n < len(alive); n++ {
		if alive[n] && !alive[origParent(n)] {
			plan.Reparents++
		}
	}
	// Fewer than half the nodes surviving: the tree is too degraded —
	// route every payload straight from node 0.
	plan.Direct = live*2 < len(alive)
	for _, d := range dsts {
		if plan.Direct {
			plan.Routes[d] = []int{d}
			continue
		}
		var rev []int
		for n := d; n > 0; n = liveParent(n, alive) {
			rev = append(rev, n)
		}
		route := make([]int, len(rev))
		for i, n := range rev {
			route[len(rev)-1-i] = n
		}
		plan.Routes[d] = route
	}
	return plan
}
