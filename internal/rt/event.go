// Package rt implements a Legion-like task runtime (paper §5): tasks are
// issued in program order, analyzed for dependencies through a region-tree
// version map, distributed to (simulated) nodes via sharding or slicing
// functors, and executed on per-node worker pools once their precondition
// events have triggered.
//
// The runtime executes real Go task functions against real region data; it
// is the substrate for the examples and the correctness tests. The
// distributed *cost* behaviour of the pipeline (who pays issuance, analysis
// and distribution overhead at scale) is modeled separately in
// internal/sim, which replays the same pipeline against a discrete-event
// cluster model.
package rt

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Event is a one-shot completion signal. Events order task execution: each
// task carries a set of precondition events and triggers its own completion
// event when it finishes. An event may trigger *poisoned* — carrying the
// error of the task it represents — so that failures propagate along the
// same dependence edges as completions. The zero value is not usable;
// create events with NewEvent or use Completed.
type Event struct {
	ch chan struct{}
	mu sync.Mutex
	// err is written at most once, under mu before ch closes; readers must
	// only load it after observing the close, which gives the necessary
	// happens-before edge.
	err error
	// then holds the callbacks onFire registered before the event fired.
	then []func()
}

// NewEvent returns an untriggered event.
func NewEvent() *Event { return &Event{ch: make(chan struct{})} }

// Completed returns a pre-triggered event; tasks with no preconditions
// depend on it.
func Completed() *Event {
	e := NewEvent()
	e.Trigger()
	return e
}

// Trigger fires the event. Triggering is idempotent.
func (e *Event) Trigger() { e.Poison(nil) }

// Poison fires the event carrying err, marking the work it represents as
// failed. Dependents observe the error through Err, WaitErr or WaitAllErr.
// Poisoning an already-triggered event is a no-op; Poison(nil) is Trigger.
// Callbacks registered with onFire run on the calling goroutine.
func (e *Event) Poison(err error) {
	e.mu.Lock()
	if e.Done() {
		e.mu.Unlock()
		return
	}
	e.err = err
	close(e.ch)
	then := e.then
	e.then = nil
	e.mu.Unlock()
	for _, fn := range then {
		fn()
	}
}

// onFire calls fn once e has fired: at once if it already has, otherwise on
// the goroutine that fires it. fn must not block — it is how a waiter
// parks without a goroutine of its own.
func (e *Event) onFire(fn func()) {
	e.mu.Lock()
	if e.Done() {
		e.mu.Unlock()
		fn()
		return
	}
	e.then = append(e.then, fn)
	e.mu.Unlock()
}

// afterAll calls fn once every event in evs has fired, without a goroutine:
// immediately when they all have, otherwise on the goroutine that fires the
// last one.
func afterAll(evs []*Event, fn func()) {
	var left atomic.Int64
	left.Store(int64(len(evs)) + 1)
	one := func() {
		if left.Add(-1) == 0 {
			fn()
		}
	}
	for _, e := range evs {
		e.onFire(one)
	}
	one()
}

// Err returns the poison error if the event has triggered poisoned, and nil
// if it triggered cleanly or has not triggered yet.
func (e *Event) Err() error {
	select {
	case <-e.ch:
		return e.err
	default:
		return nil
	}
}

// Done reports whether the event has triggered without blocking.
func (e *Event) Done() bool {
	select {
	case <-e.ch:
		return true
	default:
		return false
	}
}

// Wait blocks until the event triggers.
func (e *Event) Wait() { <-e.ch }

// WaitErr blocks until the event triggers and returns its poison error.
func (e *Event) WaitErr() error {
	<-e.ch
	return e.err
}

// WaitContext blocks until the event triggers or ctx is done, returning the
// poison error or the context's error respectively.
func (e *Event) WaitContext(ctx context.Context) error {
	select {
	case <-e.ch:
		return e.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WaitAll blocks until every event in evs has triggered.
func WaitAll(evs []*Event) {
	for _, e := range evs {
		e.Wait()
	}
}

// WaitAllErr blocks until every event in evs has triggered and returns the
// joined poison errors, nil if all triggered cleanly.
func WaitAllErr(evs []*Event) error {
	var errs []error
	for _, e := range evs {
		if err := e.WaitErr(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Merge returns an event that triggers once all inputs have triggered. If
// any input triggered poisoned, the merged event is poisoned with the
// joined errors. Merging zero events yields a completed event; merging one
// returns it unchanged. The merged event costs no goroutine: the last input
// to fire fires it.
func Merge(evs ...*Event) *Event {
	switch len(evs) {
	case 0:
		return Completed()
	case 1:
		return evs[0]
	}
	out := NewEvent()
	afterAll(evs, func() { out.Poison(WaitAllErr(evs)) })
	return out
}
