package sched

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Queue is a pluggable queue discipline. Implementations need no internal
// locking — the scheduler serializes access under its mutex (and the trace
// driver is single-threaded) — but they must be deterministic: the same
// Push/Pop/Requeue sequence yields the same job order, with no dependence
// on map iteration or clocks. That determinism is what makes the decision
// log byte-identical per seed. A durable scheduler (Config.Durable.Dir)
// snapshots the discipline's order with SaveState and rebuilds it with
// LoadState.
type Queue interface {
	// Name identifies the discipline in the decision log and /statusz.
	Name() string
	// Push appends a newly admitted job.
	Push(j *Job)
	// Requeue returns a preempted job; it re-enters at the front of its
	// class/tenant so a preempted job is the next of its peers to run.
	Requeue(j *Job)
	// Pop removes and returns the next job to dispatch, nil when empty.
	Pop() *Job
	// Len returns the number of queued jobs.
	Len() int
	// SaveState serializes the discipline's state. Jobs are referenced by
	// ID only; their specs travel in the snapshot's job table.
	SaveState() (json.RawMessage, error)
	// LoadState rebuilds the discipline from saved state, resolving job IDs
	// through jobs. Unknown IDs are corruption and must error.
	LoadState(jobs map[JobID]*Job, state json.RawMessage) error
}

// resolveIDs maps saved job IDs back to live jobs, erroring on unknown IDs.
func resolveIDs(jobs map[JobID]*Job, ids []JobID) ([]*Job, error) {
	out := make([]*Job, 0, len(ids))
	for _, id := range ids {
		j, ok := jobs[id]
		if !ok {
			return nil, fmt.Errorf("sched: queue state references unknown job %d", id)
		}
		out = append(out, j)
	}
	return out, nil
}

func jobIDs(jobs []*Job) []JobID {
	ids := make([]JobID, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}

// fifo is the building-block job list: append at tail, pop at head.
type fifo struct{ jobs []*Job }

func (f *fifo) push(j *Job)  { f.jobs = append(f.jobs, j) }
func (f *fifo) front(j *Job) { f.jobs = append([]*Job{j}, f.jobs...) }
func (f *fifo) len() int     { return len(f.jobs) }
func (f *fifo) head() *Job {
	if len(f.jobs) == 0 {
		return nil
	}
	return f.jobs[0]
}
func (f *fifo) pop() *Job {
	if len(f.jobs) == 0 {
		return nil
	}
	j := f.jobs[0]
	f.jobs[0] = nil
	f.jobs = f.jobs[1:]
	return j
}

// fifoQueue serves jobs in arrival order, blind to tenant and priority.
type fifoQueue struct{ q fifo }

// NewFIFO returns the arrival-order discipline.
func NewFIFO() Queue { return &fifoQueue{} }

func (f *fifoQueue) Name() string   { return "fifo" }
func (f *fifoQueue) Push(j *Job)    { f.q.push(j) }
func (f *fifoQueue) Requeue(j *Job) { f.q.front(j) }
func (f *fifoQueue) Pop() *Job      { return f.q.pop() }
func (f *fifoQueue) Len() int       { return f.q.len() }

// priorityQueue serves the highest priority class first, FIFO within a
// class. A lower class is never served while a higher class has a queued
// job — the never-inverts property the policy tests lock in.
type priorityQueue struct {
	classes map[int]*fifo
	order   []int // present classes, sorted descending
	n       int
}

// NewStrictPriority returns the strict-priority discipline.
func NewStrictPriority() Queue { return &priorityQueue{classes: map[int]*fifo{}} }

func (p *priorityQueue) Name() string { return "priority" }
func (p *priorityQueue) Len() int     { return p.n }

func (p *priorityQueue) class(prio int) *fifo {
	c := p.classes[prio]
	if c == nil {
		c = &fifo{}
		p.classes[prio] = c
		p.order = append(p.order, prio)
		sort.Sort(sort.Reverse(sort.IntSlice(p.order)))
	}
	return c
}

func (p *priorityQueue) Push(j *Job) {
	p.class(j.Spec.Priority).push(j)
	p.n++
}

func (p *priorityQueue) Requeue(j *Job) {
	p.class(j.Spec.Priority).front(j)
	p.n++
}

func (p *priorityQueue) Pop() *Job {
	for _, prio := range p.order {
		if j := p.classes[prio].pop(); j != nil {
			p.n--
			return j
		}
	}
	return nil
}

// fairQueue is weighted fair share by tenant via deficit round robin: each
// tenant owns a FIFO and a deficit counter; every time the rotor reaches a
// tenant it earns quantum x weight deficit, and its head job is served once
// the deficit covers the job's cost. Over a backlogged interval each
// tenant's served cost converges to its weight share — the ±5% property
// TestFairShareConvergence holds the implementation to. Tenants become
// active in first-arrival order, which keeps the rotor deterministic.
type fairQueue struct {
	quantum   int64
	weights   map[string]int
	defWeight int

	tenants map[string]*tenantQ
	active  []string // tenants with queued jobs, activation order
	cursor  int
	granted bool // current rotor position already earned its quantum
	n       int
}

type tenantQ struct {
	q       fifo
	deficit int64
}

// NewWeightedFair returns the deficit-round-robin fair-share discipline.
// quantum is the deficit earned per rotor visit before weighting (values
// < 1 default to 1); weights maps tenant to weight, defaulting to
// defaultWeight (itself defaulted to 1) for tenants not listed.
func NewWeightedFair(quantum int64, weights map[string]int, defaultWeight int) Queue {
	if quantum < 1 {
		quantum = 1
	}
	if defaultWeight < 1 {
		defaultWeight = 1
	}
	w := make(map[string]int, len(weights))
	for t, v := range weights {
		if v >= 1 {
			w[t] = v
		}
	}
	return &fairQueue{quantum: quantum, weights: w, defWeight: defaultWeight, tenants: map[string]*tenantQ{}}
}

func (f *fairQueue) Name() string { return "fair" }
func (f *fairQueue) Len() int     { return f.n }

func (f *fairQueue) weight(tenant string) int64 {
	if w, ok := f.weights[tenant]; ok {
		return int64(w)
	}
	return int64(f.defWeight)
}

func (f *fairQueue) enqueue(j *Job, front bool) {
	t := j.Spec.Tenant
	tq := f.tenants[t]
	if tq == nil {
		tq = &tenantQ{}
		f.tenants[t] = tq
	}
	if tq.q.len() == 0 {
		f.active = append(f.active, t)
	}
	if front {
		tq.q.front(j)
	} else {
		tq.q.push(j)
	}
	f.n++
}

func (f *fairQueue) Push(j *Job)    { f.enqueue(j, false) }
func (f *fairQueue) Requeue(j *Job) { f.enqueue(j, true) }

// deactivate removes the tenant at active index i, keeping the rotor
// position stable. An idle tenant forfeits its residual deficit — standard
// DRR, so bursty tenants cannot bank credit while absent.
func (f *fairQueue) deactivate(i int) {
	f.tenants[f.active[i]].deficit = 0
	f.active = append(f.active[:i], f.active[i+1:]...)
	if i < f.cursor {
		f.cursor--
	}
	if f.cursor >= len(f.active) {
		f.cursor = 0
	}
	f.granted = false
}

func (f *fairQueue) Pop() *Job {
	if f.n == 0 {
		return nil
	}
	// Deficits grow by quantum x weight per full rotation, so some head job
	// becomes affordable within cost/quantum rotations; the guard is purely
	// defensive.
	for guard := 0; guard < 1<<30; guard++ {
		if f.cursor >= len(f.active) {
			f.cursor = 0
		}
		t := f.active[f.cursor]
		tq := f.tenants[t]
		if !f.granted {
			tq.deficit += f.quantum * f.weight(t)
			f.granted = true
		}
		if head := tq.q.head(); head != nil && tq.deficit >= head.Spec.cost() {
			j := tq.q.pop()
			tq.deficit -= j.Spec.cost()
			f.n--
			if tq.q.len() == 0 {
				f.deactivate(f.cursor)
			}
			// The rotor stays on this tenant while its deficit lasts
			// (granted stays true), serving runs of affordable jobs before
			// rotating on.
			return j
		}
		f.granted = false
		f.cursor++
	}
	panic(fmt.Sprintf("sched: fair queue made no progress over %d jobs", f.n))
}

// --- durable state (SaveState/LoadState) ---

// SaveState serializes the FIFO as its job IDs in order.
func (f *fifoQueue) SaveState() (json.RawMessage, error) {
	return json.Marshal(jobIDs(f.q.jobs))
}

// LoadState rebuilds the FIFO from saved IDs.
func (f *fifoQueue) LoadState(jobs map[JobID]*Job, state json.RawMessage) error {
	var ids []JobID
	if err := json.Unmarshal(state, &ids); err != nil {
		return fmt.Errorf("sched: fifo state: %w", err)
	}
	resolved, err := resolveIDs(jobs, ids)
	if err != nil {
		return err
	}
	f.q = fifo{jobs: resolved}
	return nil
}

// priorityState is one priority class's saved order.
type priorityState struct {
	Prio int     `json:"prio"`
	IDs  []JobID `json:"ids"`
}

// SaveState serializes non-empty classes highest-priority first.
func (p *priorityQueue) SaveState() (json.RawMessage, error) {
	var classes []priorityState
	for _, prio := range p.order {
		if c := p.classes[prio]; c.len() > 0 {
			classes = append(classes, priorityState{Prio: prio, IDs: jobIDs(c.jobs)})
		}
	}
	return json.Marshal(classes)
}

// LoadState rebuilds the classes; re-pushing in saved order reproduces both
// the per-class FIFO order and the sorted class index.
func (p *priorityQueue) LoadState(jobs map[JobID]*Job, state json.RawMessage) error {
	var classes []priorityState
	if err := json.Unmarshal(state, &classes); err != nil {
		return fmt.Errorf("sched: priority state: %w", err)
	}
	p.classes, p.order, p.n = map[int]*fifo{}, nil, 0
	for _, cs := range classes {
		resolved, err := resolveIDs(jobs, cs.IDs)
		if err != nil {
			return err
		}
		for _, j := range resolved {
			p.class(cs.Prio).push(j)
			p.n++
		}
	}
	return nil
}

// fairState is the DRR discipline's saved rotor: active tenants in
// activation order with their deficits and queued IDs, plus the rotor
// cursor and whether the current position already earned its quantum.
type fairState struct {
	Tenants []fairTenantState `json:"tenants"`
	Cursor  int               `json:"cursor"`
	Granted bool              `json:"granted"`
}

type fairTenantState struct {
	Tenant  string  `json:"tenant"`
	Deficit int64   `json:"deficit"`
	IDs     []JobID `json:"ids"`
}

// SaveState serializes the DRR rotor. Idle tenants carry no state (their
// deficit is forfeited on deactivation), so only active ones are saved.
func (f *fairQueue) SaveState() (json.RawMessage, error) {
	st := fairState{Cursor: f.cursor, Granted: f.granted}
	for _, t := range f.active {
		tq := f.tenants[t]
		st.Tenants = append(st.Tenants, fairTenantState{
			Tenant: t, Deficit: tq.deficit, IDs: jobIDs(tq.q.jobs),
		})
	}
	return json.Marshal(st)
}

// LoadState rebuilds the rotor: pushing tenants in saved activation order
// reproduces the active list, then deficits, cursor and the granted flag
// are restored directly.
func (f *fairQueue) LoadState(jobs map[JobID]*Job, state json.RawMessage) error {
	var st fairState
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("sched: fair state: %w", err)
	}
	f.tenants, f.active, f.n = map[string]*tenantQ{}, nil, 0
	for _, ts := range st.Tenants {
		resolved, err := resolveIDs(jobs, ts.IDs)
		if err != nil {
			return err
		}
		for _, j := range resolved {
			f.enqueue(j, false)
		}
		if tq := f.tenants[ts.Tenant]; tq != nil {
			tq.deficit = ts.Deficit
		}
	}
	f.cursor, f.granted = st.Cursor, st.Granted
	if f.cursor > len(f.active) {
		return fmt.Errorf("sched: fair state cursor %d past %d active tenants", f.cursor, len(f.active))
	}
	return nil
}
