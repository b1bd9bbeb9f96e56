package rt

import (
	"fmt"
	"slices"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/region"
)

// Capture/replay (paper §6.2.1, citing Lee et al. [20]) memoizes the
// dependence analysis of a repeated sequence of launches. The first episode
// with a given id captures, per launch, the dependence edges the version
// map produced; later episodes replay the captured template, skipping
// version-map queries entirely.
//
// The unit of memoization is the launch, which is the paper's stated
// future work: "tracing to work with bulk task launches, such that the
// benefits of index launches can be enjoyed, even without DCR". A capture
// merges a launch's points' edges into "which earlier launches does this
// launch depend on", and a replay wires every point of the launch to the
// merged completion events of those launches: one dependence decision per
// launch, so the compact representation survives replay. The price is
// precision: points that would be independent task by task (halo
// exchanges, say) become launch barriers during replay. Correctness is
// unaffected.
//
// A replayed episode is stitched to the surrounding program by one
// version-map access: BeginTrace enters the replay's terminal event as the
// writer of every run the template writes and a reader of every run it
// reads, and the preconditions that access returns become the start event
// the replay's chain roots wait on; EndTrace fires the terminal once the
// replayed launches have. Nothing queries the version map inside a replay
// (every launch there is a replayed unit), so entering it early answers
// no query differently, and the episode orders as any access does: a
// replayed write waits for earlier readers and writers, a replayed read
// only for the last writer.
//
// Replays must issue exactly the launches that were captured (same tasks
// over the same domains through the same requirements, in the same order);
// a divergent replay is a programming error and panics with a diagnostic.

// unitSig identifies one captured launch for replay validation. A replay
// over other points or data would take the captured launch's dependences
// and stay out of the replay's version-map access, so neither earlier nor
// later work on its own data would order against it.
type unitSig struct {
	task    core.TaskID
	dom     domain.Domain
	reqs    []PhysicalRegion   // privilege, operator and fields
	parts   []core.Requirement // an index launch's partitions and functors
	regions []*region.Region   // a single launch's regions
}

// eq compares functors by name and description: == panics on a closure.
func (a unitSig) eq(b unitSig) bool {
	sameReq := func(x, y PhysicalRegion) bool {
		return x.Priv == y.Priv && x.RedOp == y.RedOp && slices.Equal(x.Fields, y.Fields)
	}
	samePart := func(x, y core.Requirement) bool {
		return x.Partition == y.Partition && x.Functor.Name() == y.Functor.Name() && x.Functor.Describe() == y.Functor.Describe()
	}
	return a.task == b.task && a.dom.Eq(b.dom) && slices.Equal(a.regions, b.regions) &&
		slices.EqualFunc(a.reqs, b.reqs, sameReq) && slices.EqualFunc(a.parts, b.parts, samePart)
}

// template is a captured episode: what a replay needs instead of the
// version map.
type template struct {
	id     uint64
	units  []unitSig
	deps   [][]int                        // per unit, the earlier units of the episode it depends on
	writes map[fieldKey][]region.Interval // per field; sorted, disjoint runs once stored
	reads  map[fieldKey][]region.Interval
}

// episode is the capture or replay between one BeginTrace/EndTrace pair.
// Guarded by issueMu.
type episode struct {
	tmpl   *template
	replay bool

	// Capture: the unit that issued each completion event, and the
	// signature and dependence indices of the unit still open. selfDep
	// names the task of the first launch whose points depend on each other.
	unitOf  map[*Event]int
	sig     unitSig
	open    []int
	selfDep string

	// Replay: the next unit, every issued unit's completion event, the
	// start event the chain roots wait on, and the terminal event the
	// version map holds for the whole episode.
	cursor int
	done   []*Event
	start  *Event
	end    *Event
}

func (r *Runtime) replaying() bool { return r.ep != nil && r.ep.replay }

// BeginTrace starts an episode. The first episode with a given id captures;
// later episodes replay. Episodes do not nest.
func (r *Runtime) BeginTrace(id uint64) error {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	if r.ep != nil {
		return fmt.Errorf("rt: trace %d begun inside another trace", id)
	}
	if tmpl, ok := r.templates[id]; ok {
		ep := &episode{tmpl: tmpl, replay: true, done: make([]*Event, len(tmpl.units)), end: NewEvent()}
		var pre []*Event
		for key, ivs := range tmpl.writes {
			pre = append(pre, r.vm.access(key.tree, key.field, ivs, privilege.Write, privilege.OpNone, ep.end)...)
		}
		for key, ivs := range tmpl.reads {
			pre = append(pre, r.vm.access(key.tree, key.field, ivs, privilege.Read, privilege.OpNone, ep.end)...)
		}
		ep.start = Merge(pre...)
		r.ep = ep
		return nil
	}
	r.ep = &episode{
		tmpl: &template{id: id,
			writes: map[fieldKey][]region.Interval{},
			reads:  map[fieldKey][]region.Interval{}},
		unitOf: map[*Event]int{},
	}
	return nil
}

// EndTrace finishes the current episode. An EndTrace that does not match
// its BeginTrace, that ends a replay short of the captured launches, or
// that ends a capture holding a launch whose points depend on each other,
// returns an error and discards the episode: no template is stored, nothing
// is counted.
func (r *Runtime) EndTrace(id uint64) error {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	ep := r.ep
	if ep == nil {
		return fmt.Errorf("rt: EndTrace(%d) without BeginTrace", id)
	}
	r.ep = nil
	t := ep.tmpl
	stage := obs.StageCapture
	var err error
	switch {
	case t.id != id:
		err = fmt.Errorf("rt: EndTrace(%d) does not match BeginTrace(%d)", id, t.id)
	case ep.replay && ep.cursor != len(t.units):
		err = fmt.Errorf("rt: trace %d replay issued %d of %d launches", id, ep.cursor, len(t.units))
	case ep.selfDep != "":
		err = fmt.Errorf("rt: trace %d captured a launch of task %q whose points depend on each other, which a replay cannot order (an unsafe launch issued without VerifyLaunches)", id, ep.selfDep)
	}
	if ep.replay {
		// A discarded replay fires its terminal too: what it issued is in
		// flight, and later work must order after it.
		ep.finish(err != nil)
		r.outstanding = append(r.outstanding, pendingTask{ev: ep.end, name: "trace-replay", tag: "trace"})
		stage = obs.StageReplay
	}
	if err != nil {
		return err
	}
	if ep.replay {
		r.mx.TraceReplays.Inc()
	} else {
		for _, m := range []map[fieldKey][]region.Interval{t.writes, t.reads} {
			for key, ivs := range m {
				m[key] = region.Union(ivs)
			}
		}
		if r.templates == nil {
			r.templates = map[uint64]*template{}
		}
		r.templates[id] = t
		r.mx.TraceCaptures.Inc()
	}
	if prof := r.cfg.Profile; prof != nil {
		prof.Mark(0, stage, "trace", "trace", domain.Point{}, prof.Now())
	}
	return nil
}

// finish fires the replay's terminal once the launches it issued have
// fired, poisoned with their errors. A replay cut short also waits for its
// start, which a complete replay reaches through its units.
func (ep *episode) finish(short bool) {
	evs := ep.done[:ep.cursor:ep.cursor]
	if short {
		evs = append(evs, ep.start)
	}
	afterAll(evs, func() { ep.end.Poison(WaitAllErr(evs)) })
}

// launchBegin opens l's unit in the open episode, if any. A replayed launch
// is one unit, so its points' shared preconditions are fixed here.
func (ep *episode) launchBegin(l *launch, il *core.IndexLaunch, regions []*region.Region) {
	if ep == nil {
		return
	}
	sig := unitSig{task: l.task, dom: l.dom, reqs: l.reqs, regions: regions}
	if il != nil {
		sig.parts = slices.Clone(il.Requirements)
	}
	if ep.replay {
		l.deps = ep.unitDeps(sig)
	} else {
		ep.sig = sig
	}
}

// capture records one analyzed point of l into the open unit: its
// completion event, its edges to earlier units and the data it touches.
func (ep *episode) capture(l *launch, ev *Event, deps []*Event, regions []*region.Region) {
	t := ep.tmpl
	ep.unitOf[ev] = len(t.units)
	// Edges to events from outside the episode are dropped: pre-episode
	// ordering is reconstructed at replay time from the version map (the
	// replay's start), never from the capture run, whose timing-dependent view
	// of pre-episode state (e.g. fresh, never-written regions) says nothing
	// about what a replay will find. An edge to an earlier point of the same
	// launch would make the unit wait on itself, so it fails the capture.
	for _, d := range deps {
		j, ok := ep.unitOf[d]
		switch {
		case !ok || slices.Contains(ep.open, j):
		case j == len(t.units):
			if ep.selfDep == "" {
				ep.selfDep = l.name
			}
		default:
			ep.open = append(ep.open, j)
		}
	}
	for i, req := range l.reqs {
		ivs := regions[i].Intervals()
		for _, f := range req.Fields {
			key := fieldKey{tree: regions[i].Tree.ID, field: f}
			if req.Priv.IsWrite() {
				t.writes[key] = append(t.writes[key], ivs...)
			} else {
				t.reads[key] = append(t.reads[key], ivs...)
			}
		}
	}
}

// unitDeps validates the next replayed unit against its captured signature
// and returns its precondition events.
func (ep *episode) unitDeps(got unitSig) []*Event {
	t := ep.tmpl
	if ep.cursor >= len(t.units) {
		panic(fmt.Sprintf("rt: trace %d replay issued more launches than captured (%d)", t.id, len(t.units)))
	}
	if want := t.units[ep.cursor]; !want.eq(got) {
		panic(fmt.Sprintf("rt: trace %d replay diverged at launch %d: captured task %d over %v, replayed task %d over %v (requirements compared too)",
			t.id, ep.cursor, want.task, want.dom, got.task, got.dom))
	}
	// Every replayed unit waits on the replay's start. A capture-time "had
	// external deps" flag cannot stand in for this: a unit that read *fresh*
	// data during capture (no prior tasks, so no edges) is indistinguishable
	// from one that is genuinely independent, yet at replay time the same
	// read races with whatever wrote the region since — typically the
	// previous episode. Units with intra-episode deps reach the start
	// transitively, so only the chain roots wait on it; any other unit
	// waits on one merge of its deps, so each of its points parks once.
	deps := t.deps[ep.cursor]
	if len(deps) == 0 {
		return []*Event{ep.start}
	}
	evs := make([]*Event, len(deps))
	for i, j := range deps {
		evs[i] = ep.done[j]
	}
	return []*Event{Merge(evs...)}
}

// launchDone closes l's unit: a capture appends its signature and edges to
// the template, a replay records its completion event and moves on.
func (ep *episode) launchDone(l *launch) {
	if ep.replay {
		ep.done[ep.cursor] = l.done
		ep.cursor++
		return
	}
	ep.tmpl.units = append(ep.tmpl.units, ep.sig)
	ep.tmpl.deps = append(ep.tmpl.deps, ep.open)
	ep.open = nil
}
