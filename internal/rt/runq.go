package rt

import "sync"

// Local execution runs points, not goroutines: every node has one FIFO run
// queue, drained by at most ProcsPerNode goroutines — the bound the config
// field promises. Whatever runs a task body goes through its node's queue:
// fresh points once their preconditions fire, retries and ErrUnreachable
// fallbacks of a slice's points. A point still waiting on preconditions is
// a callback on the last of them (afterAll), not a parked goroutine, so no
// goroutine exists for one point.
//
// A drainer is spawned on enqueue while fewer than ProcsPerNode run, and
// exits when it finds its queue empty: that exit is the queue's quiescence
// point, and an idle runtime holds no goroutines for execution.

// runItem is one attempt chain waiting for a processor.
type runItem struct {
	tr   *taskRun
	node int
	from resume
	// fresh marks a point's first chain: the drainer checks its fired
	// preconditions deps for poison.
	fresh bool
	deps  []*Event
}

// runQueue is one node's FIFO of attempt chains and its drainer count.
type runQueue struct {
	mu       sync.Mutex
	items    []runItem
	head     int
	drainers int
}

// ready enqueues a fresh point once its preconditions have fired.
func (r *Runtime) ready(it runItem) {
	for _, d := range it.deps {
		if !d.Done() {
			afterAll(it.deps, func() { r.enqueue(it) })
			return
		}
	}
	r.enqueue(it)
}

// enqueue appends it to its node's queue, spawning a drainer when fewer
// than ProcsPerNode are running.
func (r *Runtime) enqueue(it runItem) {
	q := &r.queues[it.node]
	q.mu.Lock()
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Reuse the drained prefix instead of growing past it.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, it)
	spawn := q.drainers < r.cfg.ProcsPerNode
	if spawn {
		q.drainers++
	}
	q.mu.Unlock()
	if spawn {
		go r.drain(q)
	}
}

// drain runs q's items in order until q is empty.
func (r *Runtime) drain(q *runQueue) {
	for {
		q.mu.Lock()
		if q.head == len(q.items) {
			q.items, q.head = q.items[:0], 0
			q.drainers--
			q.mu.Unlock()
			return
		}
		it := q.items[q.head]
		q.items[q.head] = runItem{}
		q.head++
		q.mu.Unlock()
		r.run(it)
	}
}

// run executes one attempt chain on the calling drainer. The busy gauge
// drops before the commit completes the task, so a fence that observes the
// completion observes quiescent gauges.
func (r *Runtime) run(it runItem) {
	tr := it.tr
	if it.fresh {
		if cause := WaitAllErr(it.deps); cause != nil && r.cfg.OnUpstreamFailure == SkipDependents {
			r.skipPoint(tr, it.node, cause)
			return
		}
	}
	r.mx.BusyProcs.Add(1)
	o := r.runAttempt(tr, it.node, it.from)
	r.mx.BusyProcs.Add(-1)
	r.commitAttempt(tr, it.node, o)
}
