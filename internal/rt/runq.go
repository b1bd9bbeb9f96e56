package rt

import "sync"

// Local execution runs slices, not goroutines: every node has one FIFO run
// queue, drained by at most ProcsPerNode goroutines — the bound the config
// field promises. Whatever runs a task body goes through its node's queue:
// a region-free launch's local slice as at most ProcsPerNode chunks whose
// points run back to back, every other point once its preconditions fire,
// and retries and ErrUnreachable fallbacks. A point still waiting on
// preconditions is parked on them, counting them down itself (taskRun.await),
// not a parked goroutine.
//
// A drainer is spawned on enqueue while fewer than ProcsPerNode run, and
// exits when it finds its queue empty: that exit is the queue's quiescence
// point, and an idle runtime holds no goroutines for execution. Each
// drainer runs every body on one Context of its own.

// runItem is one attempt chain, or one chunk of a slice, awaiting a drainer.
type runItem struct {
	tr   *taskRun
	node int
	from resume
	// chunk, instead of tr, is a local slice whose points lo..hi-1 run.
	chunk  *sliceRun
	lo, hi int
}

// runQueue is one node's FIFO of attempt chains and its drainer count.
type runQueue struct {
	mu       sync.Mutex
	items    []runItem
	head     int
	drainers int
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

// drain runs q's items in order, on one Context, until q is empty.
func (r *Runtime) drain(q *runQueue) {
	ctx := &Context{rt: r}
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
		r.run(it, ctx)
	}
}

// run executes one item on the calling drainer. The busy gauge drops
// before the commit completes the task — runChunk drops it before its
// commit pass — so a fence that observes the completion observes quiescent
// gauges.
func (r *Runtime) run(it runItem, ctx *Context) {
	if it.chunk != nil {
		if cause := WaitAllErr(it.chunk.deps); cause != nil {
			r.skipSlice(it.chunk, it.lo, it.hi, cause)
			return
		}
	} else if e := it.tr.cause.Load(); e != nil {
		r.skipPoint(it.tr, it.node, e.err)
		return
	}
	r.mx.BusyProcs.Add(1)
	if it.chunk != nil {
		r.runChunk(it.chunk, it.lo, it.hi, ctx)
		return
	}
	o := r.runAttempt(it.tr, it.node, it.from, ctx)
	r.mx.BusyProcs.Add(-1)
	r.commitAttempt(it.tr, it.node, o)
}
