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
//
// Most events are never blocked on: dependents park on them (park) and
// Done/Err are atomic loads. So an event holds no channel until a goroutine
// blocks in Wait, WaitErr, WaitContext or a fence; the first such waiter
// makes it under mu, and Poison closes it only if it exists.
type Event struct {
	// fired is set once, under mu, after err is written: loading it true
	// gives the happens-before edge that makes reading err safe without mu.
	fired atomic.Bool
	mu    sync.Mutex
	err   error
	// ch is made by the first blocking waiter and closed by Poison; nil
	// while nobody has blocked.
	ch chan struct{}
	// then holds the runs parked on the event before it fired.
	then []*taskRun
}

// NewEvent returns an untriggered event. It is one allocation.
func NewEvent() *Event { return &Event{} }

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
// The runs parked on it count it down on the calling goroutine.
func (e *Event) Poison(err error) {
	e.mu.Lock()
	if e.fired.Load() {
		e.mu.Unlock()
		return
	}
	e.err = err
	e.fired.Store(true)
	if e.ch != nil {
		close(e.ch)
	}
	then := e.then
	e.then = nil
	e.mu.Unlock()
	for _, tr := range then {
		tr.fired(e)
	}
}

// closedCh is what blocking waits select on once an event has fired.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// waitCh returns a channel that is closed once e has fired, making e's
// channel if this is the first waiter to block.
func (e *Event) waitCh() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fired.Load() {
		return closedCh
	}
	if e.ch == nil {
		e.ch = make(chan struct{})
	}
	return e.ch
}

// park counts e down on tr once e has fired: at once if it already has,
// otherwise on the goroutine that fires it. It is how a run waits without
// a goroutine of its own.
func (e *Event) park(tr *taskRun) {
	if !e.fired.Load() {
		e.mu.Lock()
		if !e.fired.Load() {
			e.then = append(e.then, tr)
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
	}
	tr.fired(e)
}

// afterAll calls fn once every event in evs has fired, without a goroutine:
// immediately when they all have, otherwise on the goroutine that fires the
// last one. fn must not block. The waiter is a gate: a run with no task,
// parked like a point's.
func afterAll(evs []*Event, fn func()) {
	for _, e := range evs {
		if !e.Done() {
			(&taskRun{runHeader: &runHeader{gate: fn}}).await(evs)
			return
		}
	}
	fn()
}

// Err returns the poison error if the event has triggered poisoned, and nil
// if it triggered cleanly or has not triggered yet.
func (e *Event) Err() error {
	if !e.fired.Load() {
		return nil
	}
	return e.err
}

// Done reports whether the event has triggered without blocking.
func (e *Event) Done() bool { return e.fired.Load() }

// Wait blocks until the event triggers.
func (e *Event) Wait() {
	if !e.fired.Load() {
		<-e.waitCh()
	}
}

// WaitErr blocks until the event triggers and returns its poison error.
func (e *Event) WaitErr() error {
	e.Wait()
	return e.err
}

// WaitContext blocks until the event triggers or ctx is done, returning the
// poison error or the context's error respectively.
func (e *Event) WaitContext(ctx context.Context) error {
	if e.fired.Load() {
		return e.err
	}
	select {
	case <-e.waitCh():
		return e.err
	case <-ctx.Done():
		return ctx.Err()
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
