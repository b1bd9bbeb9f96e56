package rt

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

func identityRW(p *region.Partition) core.Requirement {
	return core.Requirement{
		Partition: p, Functor: projection.Identity(1),
		Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
	}
}

func TestEventPoisonPropagation(t *testing.T) {
	boom := errors.New("boom")
	e := NewEvent()
	if e.Err() != nil {
		t.Fatal("untriggered event reports an error")
	}
	e.Poison(boom)
	if !e.Done() || !errors.Is(e.Err(), boom) {
		t.Fatalf("poisoned event: done=%v err=%v", e.Done(), e.Err())
	}
	e.Poison(errors.New("second")) // idempotent: first trigger wins
	if !errors.Is(e.Err(), boom) {
		t.Fatalf("re-poison replaced error: %v", e.Err())
	}

	clean := Completed()
	if err := WaitAllErr([]*Event{clean, e}); !errors.Is(err, boom) {
		t.Fatalf("WaitAllErr = %v, want boom", err)
	}
	merged := Merge(clean, e, Completed())
	if err := merged.WaitErr(); !errors.Is(err, boom) {
		t.Fatalf("merged poison = %v, want boom", err)
	}
}

// A panicking task body must surface as a Future error — tagged with the
// task name and point — and its dependents must skip with ErrUpstreamFailed,
// not crash the process.
func TestPanicIsolatedAndDependentsSkip(t *testing.T) {
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
	tree, part := lineSetup(t, 40, 4)

	boom := r.MustRegisterTask("boom", func(ctx *Context) ([]byte, error) {
		if ctx.Point.X() == 2 {
			panic("kaboom")
		}
		return incrementTask(ctx)
	})
	inc := r.MustRegisterTask("inc", incrementTask)

	fm1, err := r.ExecuteIndex(core.MustForall("boom", boom, domain.Range1(0, 3), identityRW(part)))
	if err != nil {
		t.Fatal(err)
	}
	fm2, err := r.ExecuteIndex(core.MustForall("inc", inc, domain.Range1(0, 3), identityRW(part)))
	if err != nil {
		t.Fatal(err)
	}

	err1 := fm1.WaitErr()
	var te *TaskError
	if !errors.As(err1, &te) {
		t.Fatalf("launch error %v, want *TaskError", err1)
	}
	if te.Task != "boom" || te.Point.X() != 2 || te.PanicValue != "kaboom" {
		t.Errorf("TaskError = %+v, want task boom, point 2, panic kaboom", te)
	}
	if !strings.Contains(err1.Error(), `task "boom"`) || !strings.Contains(err1.Error(), "panicked") {
		t.Errorf("error not descriptive: %v", err1)
	}

	// The dependent of the failed point skips with ErrUpstreamFailed; the
	// other points run normally.
	f2, _ := fm2.At(domain.Pt1(2))
	if _, err := f2.Get(); !errors.Is(err, ErrUpstreamFailed) {
		t.Errorf("dependent of failed task: err = %v, want ErrUpstreamFailed", err)
	}
	for _, x := range []int64{0, 1, 3} {
		f, _ := fm2.At(domain.Pt1(x))
		if _, err := f.Get(); err != nil {
			t.Errorf("point %d failed: %v", x, err)
		}
	}
	r.Fence()

	// Blocks 0,1,3 saw both increments; block 2 saw neither.
	acc := region.MustFieldF64(tree.Root(), fieldVal)
	for e := int64(0); e < 40; e++ {
		want := 2.0
		if e/10 == 2 {
			want = 0
		}
		if got := acc.Get(domain.Pt1(e)); got != want {
			t.Fatalf("element %d = %v, want %v", e, got, want)
		}
	}

	st := r.Stats()
	if st.Panics != 1 || st.TasksFailed != 1 || st.TasksSkipped != 1 {
		t.Errorf("stats = panics %d, failed %d, skipped %d; want 1, 1, 1",
			st.Panics, st.TasksFailed, st.TasksSkipped)
	}
}

// Skips cascade: a chain a → b → c with a failing must poison all of b, c.
func TestSkipCascadesDownstream(t *testing.T) {
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
	_, part := lineSetup(t, 40, 4)
	fail := r.MustRegisterTask("fail", func(ctx *Context) ([]byte, error) {
		return nil, errors.New("deliberate")
	})
	inc := r.MustRegisterTask("inc", incrementTask)

	if _, err := r.ExecuteIndex(core.MustForall("fail", fail, domain.Range1(0, 3), identityRW(part))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.ExecuteIndex(core.MustForall("inc", inc, domain.Range1(0, 3), identityRW(part))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.FenceErr(); err == nil {
		t.Fatal("FenceErr = nil, want aggregated failures")
	}
	st := r.Stats()
	if st.TasksFailed != 4 || st.TasksSkipped != 12 {
		t.Errorf("failed %d, skipped %d; want 4 failed, 12 skipped", st.TasksFailed, st.TasksSkipped)
	}
}

// Transient failures recover under Config.Retry with no terminal failures,
// and the retry counter is deterministic.
func TestRetryRecoversTransientFailures(t *testing.T) {
	var mu sync.Mutex
	attempts := map[int64]int{}

	r := MustNew(Config{
		Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true,
		Retry: RetryPolicy{Max: 2, Backoff: time.Microsecond},
	})
	tree, part := lineSetup(t, 40, 4)
	flaky := r.MustRegisterTask("flaky", func(ctx *Context) ([]byte, error) {
		x := ctx.Point.X()
		mu.Lock()
		attempts[x]++
		n := attempts[x]
		mu.Unlock()
		if n == 1 && x%2 == 0 {
			return nil, fmt.Errorf("transient fault at %d", x)
		}
		return incrementTask(ctx)
	})
	fm, err := r.ExecuteIndex(core.MustForall("flaky", flaky, domain.Range1(0, 3), identityRW(part)))
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.WaitErr(); err != nil {
		t.Fatalf("retries should recover transients: %v", err)
	}
	sum, _ := region.SumF64(tree.Root(), fieldVal)
	if sum != 40 {
		t.Errorf("sum = %v, want 40", sum)
	}
	st := r.Stats()
	if st.Retries != 2 || st.TasksFailed != 0 || st.TasksExecuted != 4 {
		t.Errorf("retries %d failed %d executed %d; want 2, 0, 4",
			st.Retries, st.TasksFailed, st.TasksExecuted)
	}
}

// backoffFor saturates at MaxBackoff for large attempt counts instead of
// overflowing the shift — the regression the old `d < rp.Backoff` wrap
// check missed for shifts past 63 bits.
func TestBackoffForLargeAttempts(t *testing.T) {
	rp := RetryPolicy{Backoff: time.Second, MaxBackoff: 5 * time.Second}
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second,
		5 * time.Second, 5 * time.Second}
	for i, w := range want {
		if got := rp.backoffFor(i + 1); got != w {
			t.Errorf("backoffFor(%d) = %v, want %v", i+1, got, w)
		}
	}
	for _, attempt := range []int{32, 33, 63, 64, 65, 100, 1 << 20} {
		if got := rp.backoffFor(attempt); got != 5*time.Second {
			t.Errorf("backoffFor(%d) = %v, want saturated cap", attempt, got)
		}
	}
	// Zero MaxBackoff defaults to one minute; the default never goes
	// negative either.
	def := RetryPolicy{Backoff: time.Second}
	for _, attempt := range []int{1, 31, 32, 63, 64, 1 << 20} {
		got := def.backoffFor(attempt)
		if got <= 0 || got > defaultMaxBackoff {
			t.Errorf("default backoffFor(%d) = %v, want (0, %v]", attempt, got, defaultMaxBackoff)
		}
	}
	// The cap wins even when it undercuts the base backoff.
	tight := RetryPolicy{Backoff: time.Minute, MaxBackoff: time.Millisecond}
	if got := tight.backoffFor(1); got != time.Millisecond {
		t.Errorf("capped first backoff = %v, want 1ms", got)
	}
}

// A task failing beyond Retry.Max fails terminally with an attempt count.
func TestRetryExhaustionFailsTerminally(t *testing.T) {
	r := MustNew(Config{
		Nodes: 1, ProcsPerNode: 1, Retry: RetryPolicy{Max: 2},
	})
	always := r.MustRegisterTask("always-fails", func(ctx *Context) ([]byte, error) {
		return nil, errors.New("permanent")
	})
	fut, err := r.ExecuteSingle("doomed", always, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fut.Get()
	var te *TaskError
	if !errors.As(err, &te) || te.Attempts != 3 {
		t.Fatalf("err = %v, want TaskError with 3 attempts", err)
	}
	st := r.Stats()
	if st.Retries != 2 || st.TasksFailed != 1 {
		t.Errorf("retries %d failed %d, want 2, 1", st.Retries, st.TasksFailed)
	}
}

// Killing one of N nodes mid-launch must not change results: the launch
// completes on surviving nodes, identically to a fault-free run, on both
// the DCR and the centralized path — and the fault counters are
// deterministic across repeated runs.
func TestNodeFailureDegradedCompletion(t *testing.T) {
	for _, dcr := range []bool{true, false} {
		name := "centralized"
		if dcr {
			name = "DCR"
		}
		t.Run(name, func(t *testing.T) {
			run := func(fi *FaultInjector) (float64, Stats) {
				r := MustNew(Config{
					Nodes: 4, ProcsPerNode: 2, DCR: dcr, IndexLaunches: true, Fault: fi,
				})
				tree, part := lineSetup(t, 160, 16)
				inc := r.MustRegisterTask("inc", incrementTask)
				for round := 0; round < 3; round++ {
					if _, err := r.ExecuteIndex(core.MustForall("inc", inc, domain.Range1(0, 15), identityRW(part))); err != nil {
						t.Fatal(err)
					}
				}
				if err := r.FenceErr(); err != nil {
					t.Fatalf("degraded run failed: %v", err)
				}
				sum, err := region.SumF64(tree.Root(), fieldVal)
				if err != nil {
					t.Fatal(err)
				}
				return sum, r.Stats()
			}

			ref, _ := run(nil)
			// Kill node 2 after 20 of the 48 point tasks have been issued —
			// mid-way through the second launch.
			got, st := run(NewFaultInjector(7).KillNode(2, 20))
			if got != ref {
				t.Errorf("degraded sum = %v, fault-free sum = %v", got, ref)
			}
			if st.NodeFailures != 1 {
				t.Errorf("node failures = %d, want 1", st.NodeFailures)
			}
			// Node 2 owns 4 of 16 points per launch; launches 2 and 3 issue
			// after the kill.
			if st.Remapped != 8 {
				t.Errorf("remapped = %d, want 8", st.Remapped)
			}
			// Same seed, same config ⇒ identical fault counters.
			_, st2 := run(NewFaultInjector(7).KillNode(2, 20))
			if st.NodeFailures != st2.NodeFailures || st.Remapped != st2.Remapped ||
				st.TasksFailed != st2.TasksFailed || st.TasksExecuted != st2.TasksExecuted {
				t.Errorf("fault counters diverged across identical runs:\n%+v\n%+v", st, st2)
			}
		})
	}
}

// The injector refuses to kill the last surviving node, and KillRandomNode
// picks the same victim for the same seed.
func TestFaultInjectorBounds(t *testing.T) {
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 1})
	if !r.KillNode(0) {
		t.Fatal("first kill refused")
	}
	if r.KillNode(0) {
		t.Fatal("double kill accepted")
	}
	if r.KillNode(1) {
		t.Fatal("killing the last surviving node accepted")
	}
	alive := r.AliveNodes()
	if len(alive) != 1 || alive[0] != 1 {
		t.Fatalf("alive = %v, want [1]", alive)
	}

	a := NewFaultInjector(99).KillRandomNode(8, 10)
	b := NewFaultInjector(99).KillRandomNode(8, 10)
	if a.kills[0].node != b.kills[0].node {
		t.Errorf("same seed picked different victims: %d vs %d", a.kills[0].node, b.kills[0].node)
	}
}

// FenceTimeout and the context-aware getters return descriptive errors
// naming the hung task instead of blocking forever, and the unfinished work
// remains fence-able afterwards.
func TestFenceTimeoutNamesHungTask(t *testing.T) {
	r := MustNew(Config{Nodes: 1, ProcsPerNode: 1})
	release := make(chan struct{})
	hang := r.MustRegisterTask("hang", func(ctx *Context) ([]byte, error) {
		<-release
		return nil, nil
	})
	fut, err := r.ExecuteSingle("hang-launch", hang, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := fut.GetTimeout(10 * time.Millisecond); err == nil {
		t.Error("GetTimeout on hung task returned nil error")
	}
	err = r.FenceTimeout(10 * time.Millisecond)
	if err == nil {
		t.Fatal("FenceTimeout on hung task returned nil")
	}
	for _, want := range []string{`task "hang"`, `launch "hang-launch"`, "unfinished"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("timeout error %q missing %q", err, want)
		}
	}

	close(release)
	// The hung task went back on the outstanding list: a later fence still
	// waits for it and reports clean completion.
	if err := r.FenceErr(); err != nil {
		t.Errorf("FenceErr after release: %v", err)
	}
	if _, err := fut.Get(); err != nil {
		t.Errorf("future after release: %v", err)
	}
}

// A future map timeout names the unfinished point.
func TestFutureMapWaitTimeout(t *testing.T) {
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
	_, part := lineSetup(t, 40, 4)
	release := make(chan struct{})
	hang := r.MustRegisterTask("hang", func(ctx *Context) ([]byte, error) {
		if ctx.Point.X() == 3 {
			<-release
		}
		return nil, nil
	})
	fm, err := r.ExecuteIndex(core.MustForall("hang", hang, domain.Range1(0, 3), identityRW(part)))
	if err != nil {
		t.Fatal(err)
	}
	werr := fm.WaitTimeout(10 * time.Millisecond)
	if werr == nil || !strings.Contains(werr.Error(), "point <3>") {
		t.Errorf("WaitTimeout = %v, want error naming point <3>", werr)
	}
	close(release)
	if err := fm.WaitTimeout(time.Second); err != nil {
		t.Errorf("WaitTimeout after release: %v", err)
	}
	r.Fence()
}

// A fence abandoned by Shutdown fails with ErrShutdown (not a generic
// deadline error) and names the unfinished task plus the liveness snapshot.
func TestShutdownDuringFenceReturnsErrShutdown(t *testing.T) {
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 1, DCR: true, IndexLaunches: true})
	release := make(chan struct{})
	hang := r.MustRegisterTask("hang", func(ctx *Context) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)
	if _, err := r.ExecuteSingle("hang-launch", hang, nil, nil); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		r.Shutdown()
	}()
	start := time.Now()
	err := r.FenceTimeout(30 * time.Second)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fence returned only after %v; Shutdown did not cancel the wait", elapsed)
	}
	if !errors.Is(err, ErrShutdown) {
		t.Fatalf("fence error = %v, want ErrShutdown", err)
	}
	for _, want := range []string{"unfinished", `task "hang"`, `launch "hang-launch"`, "liveness:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("fence error %q missing %q", err, want)
		}
	}
	r.Shutdown() // double Shutdown is a no-op
}

// Fence timeout errors embed the node-liveness snapshot.
func TestFenceTimeoutIncludesLiveness(t *testing.T) {
	r := MustNew(Config{Nodes: 4, ProcsPerNode: 1, DCR: true, IndexLaunches: true})
	defer r.Shutdown()
	release := make(chan struct{})
	hang := r.MustRegisterTask("hang", func(ctx *Context) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)
	if _, err := r.ExecuteSingle("hang-launch", hang, nil, nil); err != nil {
		t.Fatal(err)
	}
	r.KillNode(3)
	err := r.FenceTimeout(30 * time.Millisecond)
	if err == nil {
		t.Fatal("fence with a hung task returned nil")
	}
	if !strings.Contains(err.Error(), "liveness: 3 alive, 1 dead") {
		t.Errorf("fence error %q missing liveness snapshot", err)
	}
}

// A drainer runs every attempt on one reused Context, so a failed attempt's
// buffered folds must be dropped when the Context is reset, never flushed:
// a reduce task that folds and fails on its first attempt and succeeds on
// its second lands its folds exactly once, and one that folds and fails on
// every attempt lands none. One node with one processor runs every point,
// failing or not, on the same Context.
func TestReusedContextDropsFailedAttemptFolds(t *testing.T) {
	for _, tc := range []struct {
		name    string
		failFor int     // attempts an even point fails
		want    float64 // what an even point's elements end at
	}{{"retried", 1, 1}, {"exhausted", 2, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			r := MustNew(Config{Nodes: 1, ProcsPerNode: 1, DCR: true, IndexLaunches: true, Retry: RetryPolicy{Max: 1}})
			defer r.Shutdown()
			tree, part := lineSetup(t, 40, 8)
			var mu sync.Mutex
			attempts := map[int64]int{}
			fold := r.MustRegisterTask("fold", func(ctx *Context) ([]byte, error) {
				red, err := ctx.ReduceF64(0, fieldVal)
				if err != nil {
					return nil, err
				}
				pr, _ := ctx.Region(0)
				pr.Region.Domain.Each(func(p domain.Point) bool {
					red.Fold(p, 1)
					return true
				})
				x := ctx.Point.X()
				mu.Lock()
				attempts[x]++
				n := attempts[x]
				mu.Unlock()
				if x%2 == 0 && n <= tc.failFor {
					return nil, fmt.Errorf("fault at attempt %d", n)
				}
				return nil, nil
			})
			fm, err := r.ExecuteIndex(core.MustForall("fold", fold, domain.Range1(0, 7), core.Requirement{
				Partition: part, Functor: projection.Identity(1), Priv: privilege.Reduce,
				RedOp: privilege.OpSumF64, Fields: []region.FieldID{fieldVal},
			}))
			if err != nil {
				t.Fatal(err)
			}
			if err := fm.WaitErr(); (err != nil) != (tc.want == 0) {
				t.Fatalf("launch error %v, want one only when retries run out", err)
			}
			acc := region.MustFieldF64(tree.Root(), fieldVal)
			for e := int64(0); e < 40; e++ {
				want := 1.0
				if (e/5)%2 == 0 {
					want = tc.want
				}
				if got := acc.Get(domain.Pt1(e)); got != want {
					t.Fatalf("element %d = %v, want %v", e, got, want)
				}
			}
		})
	}
}

// A point skips with ErrUpstreamFailed naming the cause whether its
// precondition had already fired poisoned when the point registered on it,
// or fires poisoned afterwards.
func TestSkipNamesCausePoisonedBeforeOrAfterRegistration(t *testing.T) {
	for _, before := range []bool{true, false} {
		t.Run(fmt.Sprintf("before=%v", before), func(t *testing.T) {
			r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
			defer r.Shutdown()
			_, part := lineSetup(t, 40, 4)
			boom := errors.New("boom")
			release := make(chan struct{})
			fail := r.MustRegisterTask("fail", func(*Context) ([]byte, error) {
				<-release
				return nil, boom
			})
			inc := r.MustRegisterTask("inc", incrementTask)
			fm1, err := r.ExecuteIndex(core.MustForall("fail", fail, domain.Range1(0, 3), identityRW(part)))
			if err != nil {
				t.Fatal(err)
			}
			if before {
				close(release)
				_ = fm1.WaitErr()
			}
			fm2, err := r.ExecuteIndex(core.MustForall("inc", inc, domain.Range1(0, 3), identityRW(part)))
			if err != nil {
				t.Fatal(err)
			}
			if !before {
				close(release)
			}
			for x := int64(0); x < 4; x++ {
				f, _ := fm2.At(domain.Pt1(x))
				_, err := f.Get()
				var te *TaskError
				if !errors.Is(err, ErrUpstreamFailed) || !errors.Is(err, boom) || !errors.As(err, &te) ||
					te.Task != "inc" || te.Attempts != 0 || !strings.Contains(err.Error(), `task "fail" point <`+fmt.Sprint(x)+`>`) {
					t.Errorf("point %d: %v, want a skip of inc naming fail's boom at the same point", x, err)
				}
			}
			if st := r.Stats(); st.TasksFailed != 4 || st.TasksSkipped != 4 {
				t.Errorf("failed %d, skipped %d; want 4 and 4", st.TasksFailed, st.TasksSkipped)
			}
		})
	}
}
