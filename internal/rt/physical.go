package rt

import (
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
)

// physical is the per-point stage: dependence analysis against the version
// map — or, in a replay, against the captured template — plus the point's
// completion event and span identity. It returns the events tr must wait
// for, valid until the next point's analysis; the caller parks tr on them.
// The stage's span is attributed to the owning node as in DCR, where each
// node analyzes its local points. Caller holds issueMu.
//
// Only a point something can name as a dependence comes here — one that
// touches regions, or a single launch's — so each gets a completion event.
// A region-free index launch's points are filed by slice instead (file),
// with nothing to analyze.
func (r *Runtime) physical(l *launch, tr *taskRun, p domain.Point) []*Event {
	tr.ev = l.done // a single launch's one point completes the launch
	if l.fut == nil {
		tr.ev = NewEvent()
	}
	ev, node := tr.ev, int(tr.node)

	var deps []*Event
	if r.replaying() {
		deps = l.deps
		r.mx.AnalysisSkipped.Inc()
	} else {
		t0 := r.clk.now()
		deps = r.vm.accessPoint(l.reqs, tr.regions, ev, &r.depScratch)
		if r.ep != nil {
			r.ep.capture(l, ev, deps, tr.regions)
		}
		t1 := r.clk.now()
		l.physNS += t1 - t0
		if row := l.fm.spanRow(l.issued); row != nil {
			row.PhysNode, row.PhysStart, row.PhysDur = int32(node), t0, t1-t0
			r.clk.observe(r.mx.LatPhysical, t1-t0, 1)
		} else {
			r.clk.done(obs.StagePhysical, r.mx.LatPhysical, l.tc.Point(p), 0, node, l.name, l.tag, p, t0, t1)
		}
	}

	// Span identity and dependence edges for the critical-path graph.
	if prof := r.clk.prof; prof != nil {
		spanID := tr.spanID()
		for _, d := range deps {
			if from, ok := r.profIDs[d]; ok {
				prof.Edge(from, spanID)
			}
		}
		r.profNote(ev, spanID)
	}
	return deps
}

// profIDCap bounds the event → span-ID map; beyond it, entries for
// completed events are dropped. A completed event can still be a future
// dependence (the version map keeps last writers), in which case the edge
// is lost — harmless for critical-path purposes, since a long-completed
// dependence never bound a start.
const profIDCap = 1 << 16

// profNote registers ev's span ID for dependence-edge recording. Pruning
// scans the whole map, so it runs again only once the map has doubled past
// what survived the previous scan: with many live events every note would
// otherwise rescan them all. Caller holds issueMu.
func (r *Runtime) profNote(ev *Event, id int64) {
	if len(r.profIDs) > max(r.profPruneAt, profIDCap) {
		for e := range r.profIDs {
			if e.Done() {
				delete(r.profIDs, e)
			}
		}
		r.profPruneAt = 2 * len(r.profIDs)
	}
	r.profIDs[ev] = id
}
