package rt

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
)

func TestEventTriggerDone(t *testing.T) {
	e := NewEvent()
	if e.Done() {
		t.Error("new event should not be done")
	}
	e.Trigger()
	if !e.Done() {
		t.Error("triggered event should be done")
	}
	e.Trigger() // idempotent
	e.Wait()    // returns immediately
}

func TestCompletedEvent(t *testing.T) {
	if !Completed().Done() {
		t.Error("Completed should be done")
	}
}

func TestMergeZeroAndOne(t *testing.T) {
	if !Merge().Done() {
		t.Error("merge of nothing is complete")
	}
	e := NewEvent()
	if Merge(e) != e {
		t.Error("merge of one event is itself")
	}
}

func TestMergeWaitsForAll(t *testing.T) {
	a, b := NewEvent(), NewEvent()
	m := Merge(a, b)
	a.Trigger()
	select {
	case <-time.After(10 * time.Millisecond):
	case <-waitCh(m):
		t.Fatal("merge fired before all inputs")
	}
	b.Trigger()
	select {
	case <-waitCh(m):
	case <-time.After(time.Second):
		t.Fatal("merge never fired")
	}
}

func waitCh(e *Event) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		e.Wait()
		close(ch)
	}()
	return ch
}

func TestFutureGetF64(t *testing.T) {
	f := newFuture()
	go f.complete(EncodeF64(3.5), nil)
	v, err := f.GetF64()
	if err != nil || v != 3.5 {
		t.Errorf("GetF64 = %v, %v", v, err)
	}
}

func TestFutureGetF64BadPayload(t *testing.T) {
	f := newFuture()
	f.complete([]byte{1, 2}, nil)
	if _, err := f.GetF64(); err == nil {
		t.Error("short payload should error")
	}
}

// Every way of observing an event — blocking or not, with or without a
// context, as a callback — races Poison under -race, and every observer
// sees the one error.
func TestEventObserversRacePoison(t *testing.T) {
	for range 50 {
		e := NewEvent()
		boom := errors.New("boom")
		var wg sync.WaitGroup
		var fired atomic.Int64
		errs := make(chan error, 64)
		observe := []func(){
			func() { e.Wait(); errs <- e.Err() },
			func() { errs <- e.WaitErr() },
			func() { errs <- e.WaitContext(context.Background()) },
			func() {
				for !e.Done() {
					runtime.Gosched()
				}
				errs <- e.Err()
			},
			func() { afterAll([]*Event{e}, func() { fired.Add(1); errs <- e.Err() }) },
		}
		for range 3 {
			for _, fn := range observe {
				wg.Add(1)
				go func() { defer wg.Done(); fn() }()
			}
		}
		e.Poison(boom)
		e.Poison(errors.New("second poison is a no-op"))
		wg.Wait()
		close(errs)
		n := 0
		for err := range errs {
			if err != boom {
				t.Fatalf("observer saw %v, want %v", err, boom)
			}
			n++
		}
		if n != 3*len(observe) || fired.Load() != 3 {
			t.Fatalf("%d observations, %d callbacks; want %d and 3", n, fired.Load(), 3*len(observe))
		}
	}
}

// A wait whose context is cancelled before the event fires returns the
// context's error and leaves the event untouched.
func TestEventWaitContextCancelledBeforeFire(t *testing.T) {
	e := NewEvent()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.WaitContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitContext = %v, want context.Canceled", err)
	}
	if e.Done() || e.Err() != nil {
		t.Fatal("a cancelled wait fired the event")
	}
	boom := errors.New("boom")
	go e.Poison(boom)
	if err := e.WaitErr(); err != boom {
		t.Fatalf("WaitErr after the cancelled wait = %v, want %v", err, boom)
	}
	// Fired beats cancelled: the event's outcome, not the context's.
	if err := e.WaitContext(ctx); err != boom {
		t.Fatalf("WaitContext on a fired event = %v, want %v", err, boom)
	}
}

// An event makes its channel only for a goroutine that actually blocks.
func TestEventChannelOnlyForBlockingWaiters(t *testing.T) {
	e := NewEvent()
	_ = e.Done()
	_ = e.Err()
	afterAll([]*Event{e}, func() {})
	e.Trigger()
	e.Wait()
	if err := e.WaitContext(context.Background()); err != nil || e.ch != nil {
		t.Fatalf("unblocked observers made a channel (%v)", err)
	}
	blocked := NewEvent()
	go func() {
		for {
			blocked.mu.Lock()
			made := blocked.ch != nil
			blocked.mu.Unlock()
			if made {
				blocked.Trigger()
				return
			}
			runtime.Gosched()
		}
	}()
	blocked.Wait()
}

// FenceContext and FenceTimeout on launches that already fired return at
// once with the launches' errors, even with a context already done; on a
// launch that has not fired they give up, name it, and leave it for the
// next fence.
func TestFenceContextFiredAndUnfiredLaunches(t *testing.T) {
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, IndexLaunches: true})
	defer r.Shutdown()
	boom := errors.New("boom")
	release := make(chan struct{})
	task := r.MustRegisterTask("maybe", func(ctx *Context) ([]byte, error) {
		switch string(ctx.Args) {
		case "fail":
			return nil, boom
		case "hang":
			<-release
		}
		return nil, nil
	})
	launch := func(args string) *FutureMap {
		t.Helper()
		fm, err := r.ExecuteIndex(&core.IndexLaunch{Task: task, Tag: args, Domain: domain.Range1(0, 3), Args: []byte(args)})
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()

	_ = launch("ok").WaitErr()
	if err := r.FenceContext(done); err != nil {
		t.Fatalf("FenceContext on a fired launch = %v", err)
	}
	_ = launch("fail").WaitErr()
	if err := r.FenceTimeout(time.Nanosecond); !errors.Is(err, boom) {
		t.Fatalf("FenceTimeout on a fired, failed launch = %v, want %v", err, boom)
	}

	launch("hang")
	for _, fence := range []func() error{
		func() error { return r.FenceContext(done) },
		func() error { return r.FenceTimeout(5 * time.Millisecond) },
	} {
		err := fence()
		if err == nil || !strings.Contains(err.Error(), `launch "hang"`) || !strings.Contains(err.Error(), "4 task(s) unfinished") {
			t.Fatalf("fence on an unfired launch = %v, want it named with 4 unfinished tasks", err)
		}
	}
	close(release)
	if err := r.FenceContext(context.Background()); err != nil {
		t.Fatalf("FenceContext after release = %v", err)
	}
}
