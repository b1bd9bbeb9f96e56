package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"indexlaunch/internal/rt"
)

// Live (concurrent) scheduler durability: journal wiring, idempotent
// resubmission, terminal-state retention across restarts, and the
// drain-vs-append race.

func durableCfg(dir string) Config {
	cfg := quietCfg()
	cfg.Durable.Dir = dir
	return cfg
}

func noopRun(*JobContext, *rt.Runtime) error { return nil }

// TestLiveDurableRestart is the live-mode restart cycle: run jobs (one
// rejected, one failed among them), shut down, reopen the same directory —
// terminal states answer queries, the idempotency table survives, the
// decision count and every tenant counter continue where they left off, and
// new work flows.
func TestLiveDurableRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.Admission = Admission{Tenants: map[string]Quota{"r": {Rate: 1, Burst: 1}}}
	s := MustNew(cfg)
	var ids []JobID
	for i := 0; i < 8; i++ {
		id, err := s.SubmitIdempotent(JobSpec{Tenant: "a", Run: noopRun}, fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := s.Wait(id); err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
	}
	// The rate-limited tenant's bucket holds one token: the second
	// submission is rejected (and still takes an ID).
	rid, err := s.Submit(JobSpec{Tenant: "r", Run: noopRun})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Tenant: "r", Run: noopRun}); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("second rate-limited submit = %v, want a rejection", err)
	}
	fid, err := s.Submit(JobSpec{Tenant: "f", Run: func(*JobContext, *rt.Runtime) error { return errors.New("boom") }})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(rid); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(fid); err == nil {
		t.Fatal("failing job succeeded")
	}
	st := s.Status()
	s.Shutdown()

	s2 := MustNew(cfg)
	defer s2.Shutdown()
	rep := s2.Recovery()
	if !rep.Recovered {
		t.Fatal("second open should report recovered state")
	}
	st2 := s2.Status()
	if st2.Decisions != st.Decisions {
		t.Fatalf("recovered decision count = %d, want %d", st2.Decisions, st.Decisions)
	}
	counters := func(st Status) string {
		var b strings.Builder
		for _, ts := range st.Tenants {
			fmt.Fprintf(&b, "%s enq=%d adm=%d rej=%d comp=%d fail=%d\n",
				ts.Tenant, ts.Enqueued, ts.Admitted, ts.Rejected, ts.Completed, ts.Failed)
		}
		return b.String()
	}
	want := "a enq=8 adm=8 rej=0 comp=8 fail=0\nf enq=1 adm=1 rej=0 comp=0 fail=1\nr enq=1 adm=1 rej=1 comp=1 fail=0\n"
	if got := counters(st); got != want {
		t.Fatalf("tenant counters before restart:\n%swant:\n%s", got, want)
	}
	if got := counters(st2); got != want {
		t.Fatalf("tenant counters after restart:\n%swant:\n%s", got, want)
	}
	// Terminal states answer post-restart queries.
	for _, id := range ids {
		info, res := s2.Lookup(id)
		if res != LookupFound || info.State != "done" {
			t.Fatalf("Lookup(%d) after restart = %+v, %v", id, info, res)
		}
		if err := s2.Wait(id); err != nil {
			t.Fatalf("Wait(%d) after restart: %v", id, err)
		}
	}
	// The idempotency table survived: old keys return the original IDs.
	for i, want := range ids {
		got, err := s2.SubmitIdempotent(JobSpec{Tenant: "a", Run: noopRun}, fmt.Sprintf("key-%d", i))
		if err != nil || got != want {
			t.Fatalf("resubmit key-%d = %d, %v; want %d", i, got, err, want)
		}
	}
	// New work runs, with IDs continuing densely.
	id, err := s2.Submit(JobSpec{Tenant: "b", Run: noopRun})
	if err != nil {
		t.Fatal(err)
	}
	if id != fid+1 {
		t.Fatalf("post-restart ID = %d, want %d", id, fid+1)
	}
	if err := s2.Wait(id); err != nil {
		t.Fatal(err)
	}
}

// TestLiveDurableFailedJobState checks failed-job state (error text
// included) survives a restart through the terminal ring.
func TestLiveDurableFailedJobState(t *testing.T) {
	dir := t.TempDir()
	s := MustNew(durableCfg(dir))
	id, err := s.Submit(JobSpec{Tenant: "a", Run: func(*JobContext, *rt.Runtime) error {
		return errors.New("boom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if werr := s.Wait(id); werr == nil {
		t.Fatal("job should fail")
	}
	s.Shutdown()

	s2 := MustNew(durableCfg(dir))
	defer s2.Shutdown()
	info, res := s2.Lookup(id)
	if res != LookupFound || info.State != "failed" || !strings.Contains(info.Error, "boom") {
		t.Fatalf("Lookup after restart = %+v, %v", info, res)
	}
	if werr := s2.Wait(id); werr == nil || !strings.Contains(werr.Error(), "boom") {
		t.Fatalf("Wait after restart = %v", werr)
	}
}

// TestLookupGoneVsUnknown locks the dense-ID contract: assigned-but-evicted
// IDs are Gone, never-assigned IDs are Unknown.
func TestLookupGoneVsUnknown(t *testing.T) {
	cfg := quietCfg()
	cfg.TerminalRetention = 4
	s := MustNew(cfg)
	defer s.Shutdown()
	var ids []JobID
	for i := 0; i < 10; i++ {
		id, err := s.Submit(JobSpec{Tenant: "a", Run: noopRun})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := s.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	// The oldest finished jobs fell out of the 4-slot ring.
	if _, res := s.Lookup(ids[0]); res != LookupGone {
		t.Fatalf("Lookup(evicted %d) = %v, want LookupGone", ids[0], res)
	}
	// The newest are still found.
	if info, res := s.Lookup(ids[9]); res != LookupFound || info.State != "done" {
		t.Fatalf("Lookup(recent %d) = %+v, %v", ids[9], info, res)
	}
	// An ID past nextID was never assigned.
	if _, res := s.Lookup(ids[9] + 100); res != LookupUnknown {
		t.Fatalf("Lookup(unassigned) = %v, want LookupUnknown", res)
	}
	if _, res := s.Lookup(0); res != LookupUnknown {
		t.Fatalf("Lookup(0) = %v, want LookupUnknown", res)
	}
}

// TestSubmitIdempotentDedup checks the in-process dedup contract (no
// durability involved): same key, same ID; the key is not consumed by a
// rejected submission.
func TestSubmitIdempotentDedup(t *testing.T) {
	cfg := quietCfg()
	cfg.Admission = Admission{Tenants: map[string]Quota{
		"limited": {Rate: 1, Burst: 1},
	}}
	s := MustNew(cfg)
	defer s.Shutdown()
	a, err := s.SubmitIdempotent(JobSpec{Tenant: "a", Run: noopRun}, "k1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SubmitIdempotent(JobSpec{Tenant: "a", Run: noopRun}, "k1")
	if err != nil || b != a {
		t.Fatalf("duplicate key: got %d, %v; want %d", b, err, a)
	}
	c, err := s.SubmitIdempotent(JobSpec{Tenant: "a", Run: noopRun}, "k2")
	if err != nil || c == a {
		t.Fatalf("fresh key should get a new ID: got %d, %v", c, err)
	}
	// Exhaust the rate-limited tenant's bucket, then submit with a key: the
	// rejection must not bind the key.
	if _, err := s.SubmitIdempotent(JobSpec{Tenant: "limited", Run: noopRun}, "kr"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitIdempotent(JobSpec{Tenant: "limited", Run: noopRun}, "kr2"); err == nil {
		t.Fatal("second limited submission should be rejected")
	}
	// After a refill the same key must submit fresh, not replay the reject.
	s.mu.Lock()
	s.st.adm.refill()
	s.mu.Unlock()
	d, err := s.SubmitIdempotent(JobSpec{Tenant: "limited", Run: noopRun}, "kr2")
	if err != nil || d == 0 {
		t.Fatalf("retry with previously rejected key: %d, %v", d, err)
	}
}

// TestDrainRacesJournalAppend races Drain against concurrent submissions
// and completions, all journaling, under the race detector: the drain must
// settle with the journal consistent (reopenable) and every accepted job
// accounted for.
func TestDrainRacesJournalAppend(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.Executors = 4
	s := MustNew(cfg)

	const submitters = 4
	var wg sync.WaitGroup
	var accepted sync.Map
	start := make(chan struct{})
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				id, err := s.Submit(JobSpec{Tenant: fmt.Sprintf("t%d", g), Run: noopRun})
				if err != nil {
					// Draining (or closed) ends the submitter.
					return
				}
				accepted.Store(id, true)
			}
		}(g)
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	// Every accepted job reached a terminal state.
	accepted.Range(func(k, _ any) bool {
		id := k.(JobID)
		if err := s.Wait(id); err != nil {
			t.Errorf("job %d after drain: %v", id, err)
		}
		return true
	})
	s.Shutdown()

	// The journal reopens cleanly with the full history.
	s2 := MustNew(durableCfg(dir))
	defer s2.Shutdown()
	if !s2.Recovery().Recovered {
		t.Fatal("journal should recover")
	}
	accepted.Range(func(k, _ any) bool {
		id := k.(JobID)
		if _, res := s2.Lookup(id); res != LookupFound {
			t.Errorf("job %d lost across restart: %v", id, res)
		}
		return true
	})
}

// TestHTTPDurableEndpoints exercises the HTTP layer's durability surface:
// Idempotency-Key on POST /jobs, 404 vs 410 on GET /jobs/{id}, and the
// /statusz durability panel.
func TestHTTPDurableEndpoints(t *testing.T) {
	cfg := durableCfg(t.TempDir())
	cfg.TerminalRetention = 2
	s := MustNew(cfg)
	defer s.Shutdown()
	srv, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	post := func(key string) (int, SubmitResponse) {
		req, _ := http.NewRequest("POST", srv.URL()+"/jobs",
			strings.NewReader(`{"tenant":"a","tasks":2,"rounds":1}`))
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr SubmitResponse
		_ = json.NewDecoder(resp.Body).Decode(&sr)
		return resp.StatusCode, sr
	}
	code1, r1 := post("same-key")
	if code1 != http.StatusAccepted || r1.ID == 0 {
		t.Fatalf("first POST = %d, %+v", code1, r1)
	}
	code2, r2 := post("same-key")
	if code2 != http.StatusAccepted || r2.ID != r1.ID {
		t.Fatalf("idempotent POST = %d, id %d; want id %d", code2, r2.ID, r1.ID)
	}
	if err := s.Wait(r1.ID); err != nil {
		t.Fatal(err)
	}
	// Churn enough jobs through the 2-slot ring to evict the first.
	var last JobID
	for i := 0; i < 4; i++ {
		_, r := post("")
		last = r.ID
	}
	if err := s.Wait(last); err != nil {
		t.Fatal(err)
	}

	get := func(id int64) int {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", srv.URL(), id))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(int64(r1.ID)); got != http.StatusGone {
		t.Errorf("GET evicted job = %d, want 410", got)
	}
	if got := get(int64(last)); got != http.StatusOK {
		t.Errorf("GET retained job = %d, want 200", got)
	}
	if got := get(99999); got != http.StatusNotFound {
		t.Errorf("GET unassigned job = %d, want 404", got)
	}

	resp, err := http.Get(srv.URL() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wrapper struct {
		Status Status `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wrapper); err != nil {
		t.Fatal(err)
	}
	if d := wrapper.Status.Durability; d == nil || d.Appends == 0 || d.Fsync == "" {
		t.Fatalf("statusz durability panel missing or empty: %+v", wrapper.Status.Durability)
	}
}

// A synthetic submission at MaxSyntheticTasks or MaxSyntheticRounds is
// accepted and runs; one past either bound is a 400 that appends no journal
// op, so neither admission nor recovery ever sees it.
func TestHTTPSyntheticJobBounded(t *testing.T) {
	cfg := durableCfg(t.TempDir())
	s := MustNew(cfg)
	defer s.Shutdown()
	srv, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	post := func(tasks, rounds int) (int, SubmitResponse) {
		t.Helper()
		resp, err := http.Post(srv.URL()+"/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"tenant":"a","tasks":%d,"rounds":%d}`, tasks, rounds)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr SubmitResponse
		_ = json.NewDecoder(resp.Body).Decode(&sr)
		return resp.StatusCode, sr
	}
	appends := func() uint64 { return s.Status().Durability.Appends }
	for _, c := range [][2]int{{MaxSyntheticTasks + 1, 1}, {1, MaxSyntheticRounds + 1}} {
		before := appends()
		if code, _ := post(c[0], c[1]); code != http.StatusBadRequest {
			t.Errorf("%d tasks x %d rounds: POST = %d, want 400", c[0], c[1], code)
		}
		if got := appends(); got != before {
			t.Errorf("%d tasks x %d rounds: %d journal appends, want none", c[0], c[1], got-before)
		}
	}
	for _, c := range [][2]int{{MaxSyntheticTasks, 1}, {1, MaxSyntheticRounds}} {
		code, r := post(c[0], c[1])
		if code != http.StatusAccepted {
			t.Fatalf("%d tasks x %d rounds: POST = %d, want 202", c[0], c[1], code)
		}
		if err := s.Wait(r.ID); err != nil {
			t.Fatalf("%d tasks x %d rounds: %v", c[0], c[1], err)
		}
	}
}

// TestSyntheticKindNeedsNoSetup: a scheduler built from a Config that
// registers nothing runs the synthetic kind, whether the job arrives over
// POST /jobs or is rebuilt from the journal by recovery.
func TestSyntheticKindNeedsNoSetup(t *testing.T) {
	req := SubmitRequest{Tenant: "a", Tasks: 8, Rounds: 2}
	t.Run("http", func(t *testing.T) {
		s := MustNew(quietCfg())
		defer s.Shutdown()
		srv, err := Serve("127.0.0.1:0", s)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL()+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sr SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /jobs = %d: %v", resp.StatusCode, err)
		}
		if err := s.Wait(sr.ID); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("recovered", func(t *testing.T) {
		// The synthetic job queues behind a held one on the only executor;
		// a copy of the journal taken then is the crash image.
		dir, crash := t.TempDir(), t.TempDir()
		cfg := durableCfg(dir)
		cfg.Executors = 1
		s := MustNew(cfg)
		hold := make(chan struct{})
		if _, err := s.Submit(JobSpec{Tenant: "a", Run: func(*JobContext, *rt.Runtime) error { <-hold; return nil }}); err != nil {
			t.Fatal(err)
		}
		id, err := s.Submit(JobSpec{Tenant: "a", Run: SyntheticRun(req.Tasks, req.Rounds), Request: &req})
		if err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err == nil {
				err = os.WriteFile(filepath.Join(crash, f.Name()), b, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		close(hold)
		s.Shutdown()

		s2 := MustNew(durableCfg(crash))
		defer s2.Shutdown()
		if err := s2.Wait(id); err != nil {
			t.Fatalf("recovered synthetic job %d: %v", id, err)
		}
	})
}

// TestJitterRetryAfterBounds locks the jitter contract: the hinted delay is
// never shortened and never stretched past 1.5x.
func TestJitterRetryAfterBounds(t *testing.T) {
	base := 2 * time.Second
	seen := map[time.Duration]bool{}
	for n := uint64(0); n < 2000; n++ {
		got := jitterRetryAfter(base, n)
		if got < base || got >= base+base/2 {
			t.Fatalf("jitter(%v, %d) = %v out of [d, 1.5d)", base, n, got)
		}
		seen[got] = true
	}
	if len(seen) < 16 {
		t.Fatalf("jitter produced only %d distinct values; not spreading", len(seen))
	}
	if got := jitterRetryAfter(0, 7); got != 0 {
		t.Fatalf("jitter(0) = %v, want 0", got)
	}
}

// TestLiveSnapshotBounded: a live scheduler's snapshot holds its state, not
// its history — after 16k jobs it is no larger than after 2k (within the
// digits the counters and IDs gain).
func TestLiveSnapshotBounded(t *testing.T) {
	cfg := durableCfg(t.TempDir())
	cfg.TerminalRetention = 64
	s := MustNew(cfg)
	defer s.Shutdown()
	serve := func(n int) {
		for n > 0 {
			// Batches fit the retention, so no job is evicted before its Wait.
			ids := make([]JobID, 0, 32)
			for ; n > 0 && len(ids) < cap(ids); n-- {
				id, err := s.Submit(JobSpec{Tenant: "a", Run: noopRun})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			for _, id := range ids {
				if err := s.Wait(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	size := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		payload, err := s.st.encode()
		if err != nil {
			t.Fatal(err)
		}
		return len(payload)
	}
	serve(2000)
	small := size()
	serve(14000)
	if large := size(); large > small*11/10 {
		t.Fatalf("snapshot grew from %d bytes after 2k jobs to %d after 16k", small, large)
	}
}

// TestSnapshotLogFoldsIntoCounts: a snapshot from before tenant counts were
// kept carries the decision log instead, and loading it into a live state
// folds the log into the counts that state would have kept itself.
func TestSnapshotLogFoldsIntoCounts(t *testing.T) {
	adm := Admission{Tenants: map[string]Quota{"r": {Rate: 1, Burst: 1}}}
	run := func(keepLog bool) *state {
		st := newState(NewFIFO(), adm, 1, 8)
		st.keepLog = keepLog
		must := func(o op) {
			if _, err := st.apply(o); err != nil {
				t.Fatal(err)
			}
		}
		for id, ws := range []WireSpec{{Tenant: "a"}, {Tenant: "r"}, {Tenant: "r"}, {Tenant: "f"}, {Tenant: "e", Deadline: 1}} {
			must(op{K: opSubmit, Job: JobID(id + 1), Spec: &ws}) // the second "r" is rate-limited
		}
		for _, done := range []op{{Job: 1}, {Job: 2}, {Job: 4, Fail: true}} {
			must(op{K: opDispatch})
			must(op{K: opComplete, Job: done.Job, Fail: done.Fail})
		}
		must(op{K: opAdvance, N: 2})
		must(op{K: opDispatch}) // job 5 waited past its deadline: expired
		return st
	}
	render := func(st *state) string {
		var b strings.Builder
		for _, name := range []string{"a", "e", "f", "r"} {
			c := st.counts[name]
			if c == nil {
				c = &tenantCounts{}
			}
			fmt.Fprintf(&b, "%s %+v\n", name, *c)
		}
		return b.String()
	}
	const want = "a {Enqueued:1 Admitted:1 Rejected:0 Completed:1 Failed:0}\n" +
		"e {Enqueued:1 Admitted:0 Rejected:0 Completed:0 Failed:1}\n" +
		"f {Enqueued:1 Admitted:1 Rejected:0 Completed:0 Failed:1}\n" +
		"r {Enqueued:1 Admitted:1 Rejected:1 Completed:1 Failed:0}\n"
	if got := render(run(false)); got != want {
		t.Fatalf("live counts:\n%swant:\n%s", got, want)
	}
	payload, err := run(true).encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded := newState(NewFIFO(), adm, 1, 8)
	if err := loaded.load(payload); err != nil {
		t.Fatal(err)
	}
	if got := render(loaded); got != want {
		t.Fatalf("counts folded from a snapshot's log:\n%swant:\n%s", got, want)
	}
}
