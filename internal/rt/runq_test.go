package rt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

// Run queues bound what runs and what exists: no node ever runs more than
// ProcsPerNode bodies at once — fresh points and retries alike — the
// goroutine count stays within the drainers' bound
// while thousands of points are in flight, and it returns to the baseline
// once a fence has seen everything finish. CI runs this -race -count 20.
func TestRunQueuesBoundConcurrencyAndQuiesce(t *testing.T) {
	const nodes, procs, points, blocks = 4, 2, 4096, 64
	base := runtime.NumGoroutine()
	r := MustNew(Config{Nodes: nodes, ProcsPerNode: procs, DCR: true, IndexLaunches: true,
		Retry: RetryPolicy{Max: 2}})
	defer r.Shutdown()

	// Bodies count themselves in and out per node and keep each node's peak.
	var running, peak [nodes]atomic.Int64
	enter := func(node int) func() {
		n := running[node].Add(1)
		for p := peak[node].Load(); n > p && !peak[node].CompareAndSwap(p, n); p = peak[node].Load() {
		}
		return func() { running[node].Add(-1) }
	}
	// Every 97th point fails its first attempt, so retries run through the
	// queues too.
	var mu sync.Mutex
	tries := map[string]int{}
	firstTry := func(ctx *Context, tag string) bool {
		mu.Lock()
		defer mu.Unlock()
		key := fmt.Sprint(tag, ctx.Point)
		tries[key]++
		return tries[key] == 1
	}
	free := r.MustRegisterTask("free", func(ctx *Context) ([]byte, error) {
		defer enter(ctx.Node)()
		if ctx.Point.X()%97 == 0 && firstTry(ctx, "free") {
			return nil, errors.New("transient")
		}
		return EncodeF64(float64(ctx.Point.X())), nil
	})
	fold := r.MustRegisterTask("fold", func(ctx *Context) ([]byte, error) {
		defer enter(ctx.Node)()
		if ctx.Point.X()%7 == 0 && firstTry(ctx, "fold") {
			return nil, errors.New("transient")
		}
		red, err := ctx.ReduceF64(0, fieldVal)
		if err != nil {
			return nil, err
		}
		pr, _ := ctx.Region(0)
		pr.Region.Domain.Each(func(p domain.Point) bool {
			red.Fold(p, 1)
			return true
		})
		return nil, nil
	})
	// Reads depend on the folds.
	read := r.MustRegisterTask("read", func(ctx *Context) ([]byte, error) {
		defer enter(ctx.Node)()
		acc, err := ctx.ReadF64(0, fieldVal)
		if err != nil {
			return nil, err
		}
		pr, _ := ctx.Region(0)
		var s float64
		pr.Region.Domain.Each(func(p domain.Point) bool {
			s += acc.Get(p)
			return true
		})
		return EncodeF64(s), nil
	})
	_, part := lineSetup(t, 4*blocks, blocks)
	blockReq := func(priv privilege.Privilege, op privilege.OpID) core.Requirement {
		return core.Requirement{Partition: part, Functor: projection.Identity(1),
			Priv: priv, RedOp: op, Fields: []region.FieldID{fieldVal}}
	}

	stop, sampled := make(chan struct{}), make(chan int)
	go func() {
		most := 0
		for {
			most = max(most, runtime.NumGoroutine())
			select {
			case <-stop:
				sampled <- most
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	fmFree, err := r.ExecuteIndex(core.MustForall("free", free, domain.Range1(0, points-1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExecuteIndex(core.MustForall("fold", fold, domain.Range1(0, blocks-1),
		blockReq(privilege.Reduce, privilege.OpSumF64))); err != nil {
		t.Fatal(err)
	}
	fmRead, err := r.ExecuteIndex(core.MustForall("read", read, domain.Range1(0, blocks-1),
		blockReq(privilege.Read, privilege.OpNone)))
	if err != nil {
		t.Fatal(err)
	}
	ferr := r.FenceErr()
	close(stop)
	most := <-sampled
	if ferr != nil {
		t.Fatal(ferr)
	}

	if got, err := fmFree.SumF64(); err != nil || got != points*(points-1)/2 {
		t.Errorf("region-free sum = %v, %v; want %d", got, err, points*(points-1)/2)
	}
	if got, err := fmRead.SumF64(); err != nil || got != 4*blocks {
		t.Errorf("read sum = %v, %v; want %d (every element folded once)", got, err, 4*blocks)
	}
	for n := range peak {
		if p := peak[n].Load(); p > procs {
			t.Errorf("node %d ran %d bodies at once, ProcsPerNode is %d", n, p, procs)
		}
	}
	if bound := base + nodes*procs + 8; most > bound {
		t.Errorf("%d goroutines during the run, bound %d (baseline %d + %d drainers + 8)", most, bound, base, nodes*procs)
	}
	st := r.Stats()
	t.Logf("peak bodies per node %d %d %d %d; at most %d goroutines (baseline %d); retries %d",
		peak[0].Load(), peak[1].Load(), peak[2].Load(), peak[3].Load(), most, base, st.Retries)
	if st.Retries == 0 || st.TasksFailed != 0 {
		t.Errorf("Retries %d TasksFailed %d: want retries, no failures", st.Retries, st.TasksFailed)
	}
	// The drainers drain away: the quiescence point is every queue found
	// empty.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the fence, baseline %d", n, base)
	}
}

// A launch is one fence entry and its future map builds no lookup until
// At is asked for a point.
func TestLaunchIsOneFenceEntryAndFuturesAreLazy(t *testing.T) {
	r := MustNew(Config{Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
	defer r.Shutdown()
	id := r.MustRegisterTask("x", func(ctx *Context) ([]byte, error) { return EncodeF64(float64(ctx.Point.X())), nil })
	fm, err := r.ExecuteIndex(core.MustForall("x", id, domain.Range1(0, 255)))
	if err != nil {
		t.Fatal(err)
	}
	r.issueMu.Lock()
	entries := len(r.outstanding)
	r.issueMu.Unlock()
	if entries != 1 {
		t.Errorf("one 256-point launch left %d fence entries, want 1", entries)
	}
	if err := fm.Wait(); err != nil {
		t.Fatal(err)
	}
	fm.mu.Lock()
	lazy := fm.futs == nil
	fm.mu.Unlock()
	if !lazy {
		t.Error("future map built its futures before At was called")
	}
	f, err := fm.At(domain.Pt1(200))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := f.GetF64(); err != nil || v != 200 {
		t.Errorf("At(200) = %v, %v", v, err)
	}
	r.Fence()
}

// Failures report in canonical point order however they complete: here
// every point fails only after its successor has, so completion order is
// the reverse of point order. A launch group that joined errors in
// completion order would fail this.
func TestFailuresReportInCanonicalPointOrder(t *testing.T) {
	const n = 4
	r := MustNew(Config{Nodes: 1, ProcsPerNode: n, DCR: true, IndexLaunches: true})
	defer r.Shutdown()
	var fm *FutureMap
	issued := make(chan struct{})
	id := r.MustRegisterTask("rev", func(ctx *Context) ([]byte, error) {
		<-issued
		if x := ctx.Point.X(); x < n-1 {
			next, err := fm.At(domain.Pt1(x + 1))
			if err != nil {
				return nil, err
			}
			_, _ = next.Get() // its error is the point of the wait
		}
		return nil, fmt.Errorf("fail %d", ctx.Point.X())
	})
	fm, err := r.ExecuteIndex(core.MustForall("rev", id, domain.Range1(0, n-1)))
	if err != nil {
		t.Fatal(err)
	}
	close(issued)

	inOrder := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s = nil, want every point's failure", what)
		}
		msg, last := err.Error(), -1
		for x := 0; x < n; x++ {
			i := strings.Index(msg, fmt.Sprintf("point <%d>", x))
			if i <= last {
				t.Fatalf("%s does not list points in canonical order:\n%s", what, msg)
			}
			last = i
		}
	}
	inOrder("WaitErr", fm.WaitErr())
	inOrder("Event().Err", fm.Event().Err())
	for what, err := range map[string]error{"Wait": fm.Wait(), "SumF64": sumErr(fm)} {
		var te *TaskError
		if !errors.As(err, &te) || te.Point.X() != 0 {
			t.Errorf("%s = %v, want point <0>'s failure (the first in canonical order)", what, err)
		}
	}
	inOrder("FenceErr", r.FenceErr())
}

func sumErr(fm *FutureMap) error {
	_, err := fm.SumF64()
	return err
}

// An unfinished point is named — by task, launch tag and point — by every
// bounded wait and by Recycle, it counts as one unfinished task, and its
// finished siblings' futures do not wait for it.
func TestUnfinishedPointIsNamed(t *testing.T) {
	r := MustNew(Config{Nodes: 1, ProcsPerNode: 4, DCR: true, IndexLaunches: true})
	defer r.Shutdown()
	release := make(chan struct{})
	id := r.MustRegisterTask("hang", func(ctx *Context) ([]byte, error) {
		if ctx.Point.X() == 2 {
			<-release
		}
		return EncodeF64(float64(ctx.Point.X())), nil
	})
	fm, err := r.ExecuteIndex(core.MustForall("hang-launch", id, domain.Range1(0, 3)))
	if err != nil {
		close(release)
		t.Fatal(err)
	}
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	for _, x := range []int64{0, 1, 3} {
		f, err := fm.At(domain.Pt1(x))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.GetTimeout(10 * time.Second); err != nil {
			t.Fatalf("point %d: %v", x, err)
		}
		// Finished: even a deadline that has already passed returns the value.
		if b, err := f.GetTimeout(time.Nanosecond); err != nil {
			t.Errorf("point %d after it finished: %v", x, err)
		} else if v, _ := decodeF64(b); v != float64(x) {
			t.Errorf("point %d = %v", x, v)
		}
	}
	named := func(what string, err error, more ...string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s = nil with point <2> hanging", what)
		}
		for _, want := range append([]string{`task "hang"`, `launch "hang-launch"`, "point <2>"}, more...) {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s = %q, missing %q", what, err, want)
			}
		}
	}
	named("FenceTimeout", r.FenceTimeout(10*time.Millisecond), "1 task(s) unfinished")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	named("FenceContext", r.FenceContext(ctx), "1 task(s) unfinished")
	err = r.Recycle()
	named("Recycle", err)
	if !errors.Is(err, ErrBusy) {
		t.Errorf("Recycle = %v, want ErrBusy", err)
	}
	if got := r.Status().OutstandingFence; got != 1 {
		t.Errorf("OutstandingFence = %d, want 1", got)
	}
	if err := fm.WaitTimeout(time.Millisecond); err == nil || !strings.Contains(err.Error(), "point <2>") {
		t.Errorf("WaitTimeout = %v, want point <2> named", err)
	}

	close(release)
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	if err := r.Recycle(); err != nil {
		t.Fatal(err)
	}
	if got := r.Status().OutstandingFence; got != 0 {
		t.Errorf("OutstandingFence = %d after the fence, want 0", got)
	}
}

// A region-free launch runs each node's slice as run-queue chunks, on the
// DCR path and the in-process centralized path alike. A point that fails
// or panics inside a chunk retries alone; the chunk's other points commit
// from the one pass, and every slot settles exactly once.
func TestChunkFailingPointsRetryAlone(t *testing.T) {
	const points = 32
	for _, dcr := range []bool{true, false} {
		t.Run(fmt.Sprintf("dcr=%v", dcr), func(t *testing.T) {
			r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: dcr, IndexLaunches: true,
				Retry: RetryPolicy{Max: 1}})
			defer r.Shutdown()
			var runs [points]atomic.Int32
			id := r.MustRegisterTask("flaky", func(ctx *Context) ([]byte, error) {
				x := ctx.Point.X()
				switch first := runs[x].Add(1) == 1; {
				case x == 5 && first:
					return nil, errors.New("transient")
				case x == 22 && first:
					panic("transient panic")
				}
				return EncodeF64(float64(x)), nil
			})
			d := domain.Range1(0, points-1)
			fm, err := r.ExecuteIndex(core.MustForall("flaky", id, d))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.FenceErr(); err != nil {
				t.Fatal(err)
			}
			for _, p := range d.Points() {
				f, err := fm.At(p)
				if err != nil {
					t.Fatal(err)
				}
				if v, err := f.GetF64(); err != nil || v != float64(p.X()) {
					t.Errorf("point %v = %v, %v", p, v, err)
				}
				want := int32(1)
				if x := p.X(); x == 5 || x == 22 {
					want = 2
				}
				if got := runs[p.X()].Load(); got != want {
					t.Errorf("point %v ran %d times, want %d", p, got, want)
				}
			}
			// One release per slot and one for issuance: any slot settled
			// twice would leave the countdown below zero.
			if left := fm.left.Load(); left != 0 {
				t.Errorf("completion countdown ends at %d, want 0", left)
			}
			st := r.Stats()
			if st.TasksExecuted != points || st.Retries != 2 || st.Panics != 1 || st.TasksFailed != 0 {
				t.Errorf("TasksExecuted %d Retries %d Panics %d TasksFailed %d, want %d/2/1/0",
					st.TasksExecuted, st.Retries, st.Panics, st.TasksFailed, points)
			}
			if g := r.mx.InflightTasks.Value(); g != 0 {
				t.Errorf("in-flight gauge %d after the fence", g)
			}
		})
	}
}

// A replay whose launch-wide precondition is poisoned skips every point
// of its region-free launch, chunk by chunk, without running a body.
func TestChunkSkipsPoisonedBulkReplay(t *testing.T) {
	for _, dcr := range []bool{true, false} {
		t.Run(fmt.Sprintf("dcr=%v", dcr), func(t *testing.T) {
			r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: dcr, IndexLaunches: true})
			defer r.Shutdown()
			_, part := lineSetup(t, 16, 4)
			write := func(tag string, fail bool) *core.IndexLaunch {
				id := r.MustRegisterTask(tag, func(*Context) ([]byte, error) {
					if fail {
						return nil, errors.New("writer fails")
					}
					return nil, nil
				})
				return core.MustForall(tag, id, domain.Range1(0, 3), core.Requirement{
					Partition: part, Functor: projection.Identity(1),
					Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal}})
			}
			var ran atomic.Int64
			free := r.MustRegisterTask("free", func(*Context) ([]byte, error) {
				ran.Add(1)
				return nil, nil
			})
			const points = 16
			w, bad := write("w", false), write("bad", true)
			episode := func() *FutureMap {
				t.Helper()
				if err := r.BeginTrace(1); err != nil {
					t.Fatal(err)
				}
				if _, err := r.ExecuteIndex(w); err != nil {
					t.Fatal(err)
				}
				fm, err := r.ExecuteIndex(core.MustForall("free", free, domain.Range1(0, points-1)))
				if err != nil {
					t.Fatal(err)
				}
				if err := r.EndTrace(1); err != nil {
					t.Fatal(err)
				}
				return fm
			}
			episode() // capture
			if err := r.FenceErr(); err != nil {
				t.Fatal(err)
			}
			if _, err := r.ExecuteIndex(bad); err != nil {
				t.Fatal(err)
			}
			fm := episode() // replay: its boundary is the failed writer's
			if err := r.FenceErr(); !errors.Is(err, ErrUpstreamFailed) {
				t.Fatalf("fence error %v, want ErrUpstreamFailed", err)
			}
			for _, p := range fm.dom.Points() {
				f, _ := fm.At(p)
				if _, err := f.Get(); !errors.Is(err, ErrUpstreamFailed) {
					t.Errorf("free point %v: %v, want ErrUpstreamFailed", p, err)
				}
			}
			if got := ran.Load(); got != points {
				t.Errorf("free bodies ran %d times, want %d (the capture only)", got, points)
			}
			if st := r.Stats(); st.TraceReplays != 1 || st.TasksSkipped != 4+points {
				t.Errorf("TraceReplays %d TasksSkipped %d, want 1/%d", st.TraceReplays, st.TasksSkipped, 4+points)
			}
		})
	}
}
