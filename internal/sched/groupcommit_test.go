package sched

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"indexlaunch/internal/wal"
	"indexlaunch/internal/wal/waltest"
)

// Group commit on the live scheduler: acknowledgements wait for durability
// outside Scheduler.mu, and nothing acknowledged is lost to a power cut.

func alwaysCfg(dir string) Config {
	cfg := durableCfg(dir)
	cfg.Durable.Fsync = wal.SyncAlways
	return cfg
}

// TestPowerCutKeepsAcknowledged runs two submitters against a journaling
// scheduler (snapshots landing mid-run), cuts the journal back to what fsync
// had covered — once in mid-flight, once at the end — and recovers from each
// cut: every job whose Submit had returned must exist, and every job whose
// Wait had returned must be done. Snapshots every few ops recycle a segment
// file at almost every rotation, so most cuts land in a file whose previous
// records lie past the fsynced offset.
func TestPowerCutKeepsAcknowledged(t *testing.T) {
	for _, every := range []int{24, 3} {
		t.Run(fmt.Sprintf("snapshot-every-%d", every), func(t *testing.T) {
			testPowerCutKeepsAcknowledged(t, every)
		})
	}
}

func testPowerCutKeepsAcknowledged(t *testing.T, snapshotEvery int) {
	dir := t.TempDir()
	cfg := alwaysCfg(dir)
	cfg.Durable.SnapshotEvery = snapshotEvery
	s := MustNew(cfg)
	defer s.Shutdown()
	var cut waltest.Offsets
	s.jn.log.SetSyncHook(cut.Hook)

	const submitters, each = 2, 40
	var mu sync.Mutex
	var submitted, finished []JobID
	var half, all sync.WaitGroup
	half.Add(submitters)
	for g := 0; g < submitters; g++ {
		all.Add(1)
		go func() {
			defer all.Done()
			for i := 0; i < each; i++ {
				id, err := s.Submit(JobSpec{Tenant: "a", Run: noopRun})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				submitted = append(submitted, id)
				mu.Unlock()
				if err := s.Wait(id); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				finished = append(finished, id)
				mu.Unlock()
				if i == each/2 {
					half.Done()
				}
			}
		}()
	}

	// cutNow takes the acknowledged sets first and the fsynced offsets after,
	// so every acknowledgement in the sets precedes the cut. Holding s.mu
	// keeps the directory still (no write, rotation or snapshot) while it is
	// copied; commits go on.
	cutNow := func() (string, []JobID, []JobID) {
		mu.Lock()
		sub := append([]JobID(nil), submitted...)
		fin := append([]JobID(nil), finished...)
		mu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		return cut.Cut(t, dir), sub, fin
	}
	check := func(when, cutDir string, sub, fin []JobID) {
		s2, err := New(alwaysCfg(cutDir))
		if err != nil {
			t.Fatalf("%s: recovery from the cut failed: %v", when, err)
		}
		defer s2.Shutdown()
		for _, id := range sub {
			if _, res := s2.Lookup(id); res != LookupFound {
				t.Errorf("%s: job %d was acknowledged by Submit and is %v after the cut", when, id, res)
			}
		}
		for _, id := range fin {
			if info, _ := s2.Lookup(id); info.State != "done" {
				t.Errorf("%s: job %d was acknowledged done and is %q after the cut", when, id, info.State)
			}
		}
	}

	half.Wait()
	midDir, midSub, midFin := cutNow()
	all.Wait()
	endDir, endSub, endFin := cutNow()
	if len(endFin) != submitters*each {
		t.Fatalf("%d jobs finished, want %d", len(endFin), submitters*each)
	}
	if st := s.Status().Durability; st.Snapshots == 0 {
		t.Fatalf("no snapshot landed during the run: %+v", st)
	}
	check("mid-flight", midDir, midSub, midFin)
	check("at the end", endDir, endSub, endFin)
}

// holdFirstFsync holds the journal's first fsync in flight: inFlight closes
// once it is, and release (idempotent) lets it finish. Nothing is durable
// until then. Defer release after Shutdown, which commits.
func holdFirstFsync(s *Scheduler) (inFlight <-chan struct{}, release func()) {
	in, rel := make(chan struct{}), make(chan struct{})
	var first, once sync.Once
	s.jn.log.SetSyncHook(func(string, int64) {
		first.Do(func() { close(in); <-rel })
	})
	return in, func() { once.Do(func() { close(rel) }) }
}

// await polls cond under Scheduler.mu until it holds.
func await(t *testing.T, s *Scheduler, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		ok := cond()
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestNoFsyncUnderSchedulerLock holds a commit fsync in flight and requires
// everything that takes Scheduler.mu to go through meanwhile — while the
// submit that waits on that fsync stays unacknowledged.
func TestNoFsyncUnderSchedulerLock(t *testing.T) {
	s := MustNew(alwaysCfg(t.TempDir()))
	defer s.Shutdown()
	inFlight, release := holdFirstFsync(s)
	defer release()

	acked := make(chan JobID, 1)
	go func() {
		id, err := s.Submit(JobSpec{Tenant: "a", Run: noopRun})
		if err != nil {
			t.Error(err)
		}
		acked <- id
	}()
	<-inFlight

	through := make(chan struct{})
	go func() {
		defer close(through)
		s.Lookup(1)
		s.Status()
		s.SetCapacityFactor(0.5) // a journal write, under mu, beside the fsync
	}()
	select {
	case <-through:
	case <-time.After(10 * time.Second):
		t.Fatal("Scheduler.mu was held across an in-flight journal fsync")
	}
	select {
	case id := <-acked:
		t.Fatalf("Submit returned job %d before its record was durable", id)
	default:
	}

	release()
	if err := s.Wait(<-acked); err != nil {
		t.Fatal(err)
	}
}

// TestKeyHitWaitsForOriginalCommit holds the original submit's fsync while
// its job runs to completion, then resubmits under the same key: the
// duplicate hands out the same ID, so it too waits until that ID is durable —
// though the job has already retired from the scheduler state.
func TestKeyHitWaitsForOriginalCommit(t *testing.T) {
	s := MustNew(alwaysCfg(t.TempDir()))
	defer s.Shutdown()
	inFlight, release := holdFirstFsync(s)
	defer release()

	submit := func(out chan<- JobID) {
		id, err := s.SubmitIdempotent(JobSpec{Tenant: "a", Run: noopRun}, "k")
		if err != nil {
			t.Error(err)
		}
		out <- id
	}
	orig, dup := make(chan JobID, 1), make(chan JobID, 1)
	go submit(orig)
	<-inFlight
	await(t, s, "job 1 retires", func() bool { _, ok := s.st.terminal.get(1); return ok })
	go submit(dup)
	select {
	case id := <-dup:
		t.Fatalf("duplicate submit returned job %d before the original's record was durable", id)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if a, b := <-orig, <-dup; a != 1 || b != 1 {
		t.Fatalf("original and duplicate submits returned %d and %d, want 1 and 1", a, b)
	}
}

// TestGetJobWaitsForFinishCommit holds the fsync that a finished job's
// publication waits on: GET /jobs/{id} waits it out and answers done rather
// than running, while Lookup, which never blocks, still answers not done.
// A Shutdown that begins during the wait ends it.
func TestGetJobWaitsForFinishCommit(t *testing.T) {
	for _, shutdown := range []bool{false, true} {
		t.Run(fmt.Sprintf("shutdown=%v", shutdown), func(t *testing.T) {
			s := MustNew(alwaysCfg(t.TempDir()))
			defer s.Shutdown()
			inFlight, release := holdFirstFsync(s)
			defer release()
			srv := httptest.NewServer(Handler(s))
			defer srv.Close()

			go func() {
				if _, err := s.Submit(JobSpec{Tenant: "a", Run: noopRun}); err != nil {
					t.Error(err)
				}
			}()
			<-inFlight
			await(t, s, "job 1 finishes unpublished", func() bool { return len(s.unacked) == 1 })
			got := make(chan JobInfo, 1)
			go func() {
				var info JobInfo
				resp, err := http.Get(srv.URL + "/jobs/1")
				if err == nil {
					err = json.NewDecoder(resp.Body).Decode(&info)
					resp.Body.Close()
				}
				if err != nil {
					t.Error(err)
				}
				got <- info
			}()
			select {
			case info := <-got:
				t.Fatalf("GET answered %+v while the finish's commit was held", info)
			case <-time.After(100 * time.Millisecond):
			}
			if info, res := s.Lookup(1); res != LookupFound || info.State == "done" {
				t.Fatalf("Lookup(1) while the commit is held = %+v, %v; want found, not done", info, res)
			}
			if !shutdown {
				release()
				if info := <-got; info.State != "done" {
					t.Fatalf("GET after the commit = %+v, want done", info)
				}
				return
			}
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				s.Shutdown()
			}()
			select {
			case <-got:
			case <-time.After(10 * time.Second):
				t.Fatal("GET still waiting after Shutdown began")
			}
			release()
			<-stopped
		})
	}
}

// TestUnpublishedFinishOutlivesRetention finishes more jobs than the
// terminal ring holds while their records wait for an fsync: a job evicted
// from the ring before its finish was published is still running to its
// observers — Lookup finds it, Wait blocks — until the commit publishes it.
func TestUnpublishedFinishOutlivesRetention(t *testing.T) {
	const n = 6
	cfg := alwaysCfg(t.TempDir())
	cfg.TerminalRetention = 2
	s := MustNew(cfg)
	defer s.Shutdown()
	inFlight, release := holdFirstFsync(s)
	defer release()

	var submitted sync.WaitGroup
	for i := 0; i < n; i++ {
		submitted.Add(1)
		go func() {
			defer submitted.Done()
			if _, err := s.Submit(JobSpec{Tenant: "a", Run: noopRun}); err != nil {
				t.Error(err)
			}
		}()
	}
	<-inFlight
	await(t, s, "every job finishes unpublished", func() bool {
		return s.st.nextID == n && s.st.idle() && len(s.unacked) == n
	})
	// The first job to finish was the first to retire, so the ring has
	// evicted it.
	s.mu.Lock()
	id := s.unacked[0].j.ID
	_, retained := s.st.terminal.get(id)
	s.mu.Unlock()
	if retained {
		t.Fatalf("job %d is still in the 2-slot terminal ring; the test needs it evicted", id)
	}
	if info, res := s.Lookup(id); res != LookupFound || info.State == "done" {
		t.Fatalf("Lookup(%d) before its finish is durable = %+v, %v; want found, not done", id, info, res)
	}
	waited := make(chan error, 1)
	go func() { waited <- s.Wait(id) }()
	select {
	case err := <-waited:
		t.Fatalf("Wait(%d) returned %v before its finish was durable", id, err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	submitted.Wait()
	if err := <-waited; err != nil {
		t.Fatalf("Wait(%d) = %v", id, err)
	}
}

// TestIntervalSyncsIdleTail: under -fsync interval a log that goes idle still
// gets its tail synced, by the scheduler tick, once Interval has passed — the
// bound the policy promises does not depend on a next op arriving.
func TestIntervalSyncsIdleTail(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.TickEvery = time.Millisecond
	cfg.Durable.Fsync = wal.SyncInterval
	cfg.Durable.FsyncInterval = 20 * time.Millisecond
	s := MustNew(cfg)
	defer s.Shutdown()
	synced := make(chan int64, 256) // every fsync of a short test; the hook drops rather than block
	s.jn.log.SetSyncHook(func(_ string, offset int64) {
		select {
		case synced <- offset:
		default:
		}
	})

	id, err := s.Submit(JobSpec{Tenant: "a", Run: noopRun})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	// Idle from here: ticks coalesce in memory, so the segment has its final
	// size, and no op will arrive to carry a sync.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want one", segs)
	}
	st, err := os.Stat(segs[0])
	if err != nil || st.Size() == 0 {
		t.Fatalf("stat %s: %v, %v", segs[0], st, err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case offset := <-synced:
			if offset == st.Size() {
				return
			}
		case <-deadline:
			t.Fatalf("idle tail (%d bytes) never synced under SyncInterval", st.Size())
		}
	}
}
