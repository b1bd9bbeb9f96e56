package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// Crash-injection harness for the durable scheduler: build idxserve, SIGKILL
// it at seeded random points mid-run, restart against the same journal
// directory, and require the final state to be exactly what a crash-free run
// produces.
//
// Two properties are locked:
//
//   - Trace mode: the decision log printed after any number of kills and
//     restarts is byte-identical to the uninterrupted run's (no job lost,
//     none double-executed — either would perturb the log).
//   - Serve mode: a client resubmitting with its Idempotency-Key after the
//     server is killed gets its original job IDs back, and every job reaches
//     a queryable terminal state.
//
// Seeds come from CRASH_SEEDS (comma-separated, default "1,7,42") — the CI
// crash-recovery matrix shards over it. On a trace-mode mismatch the failing
// seed's journal directory is copied to ./crash-artifacts/seed<N> for the
// workflow to upload.

func crashSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("CRASH_SEEDS")
	if env == "" {
		env = "1,7,42"
	}
	var seeds []int64
	for _, part := range strings.Split(env, ",") {
		var s int64
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &s); err != nil {
			t.Fatalf("bad CRASH_SEEDS entry %q", part)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// buildIdxserve compiles the binary once per test binary invocation.
func buildIdxserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "idxserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/idxserve")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build idxserve: %v\n%s", err, out)
	}
	return bin
}

// crashSnapshotEvery is the durable runs' snapshot cadence in journal
// records. Each snapshot sets the covered segment aside and a later rotation
// reuses it, so a snapshot at 3× the cadence means the journal has been
// written over recycled files twice. At this cadence the seeded kills
// usually land before the first snapshot.
const crashSnapshotEvery = 64

// recycleSnapshotEvery is the cadence of each seed's second arm, short
// enough for a run to recycle files many times.
const recycleSnapshotEvery = 16

// newestSnapshotSeq reads the seq of the newest snapshot in a journal
// directory from its file name (0 = none).
func newestSnapshotSeq(t *testing.T, dir string) uint64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	var newest uint64
	for _, name := range names {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "snap-%x.snap", &seq); err == nil && seq > newest {
			newest = seq
		}
	}
	return newest
}

func traceArgs(seed int64, dir string, every int) []string {
	args := []string{"-trace", "-seed", fmt.Sprint(seed), "-jobs", "120",
		"-queue", "fair", "-weights", "a=1,b=2,c=4", "-rate", "4", "-burst", "8"}
	if dir != "" {
		args = append(args, "-data", dir, "-snapshot-every", fmt.Sprint(every))
	}
	return args
}

// preserveWAL copies the journal directory into ./crash-artifacts/seed<N>
// so CI can upload it from a failing run.
func preserveWAL(t *testing.T, seed int64, dir string) {
	t.Helper()
	dst := filepath.Join("crash-artifacts", fmt.Sprintf("seed%d", seed))
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Logf("preserve wal: %v", err)
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Logf("preserve wal: %v", err)
		return
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			_ = os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644)
		}
	}
	t.Logf("journal preserved in %s", dst)
}

// TestCrashRecoveryTraceDeterministic is the headline property: SIGKILL the
// durable trace run at seeded random delays, restart until it completes, and
// byte-compare the final decision log (and summary) against the crash-free
// baseline — which is itself byte-compared against the plain in-memory run.
func TestCrashRecoveryTraceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills subprocesses")
	}
	bin := buildIdxserve(t)
	// Each seed runs at the usual cadence, and at one small enough that a
	// restart finds the journal written over recycled files twice.
	type arm struct {
		seed  int64
		every int
		name  string
	}
	var arms []arm
	for _, seed := range crashSeeds(t) {
		arms = append(arms, arm{seed, crashSnapshotEvery, fmt.Sprintf("seed%d", seed)},
			arm{seed, recycleSnapshotEvery, fmt.Sprintf("seed%d-every%d", seed, recycleSnapshotEvery)})
	}
	for _, a := range arms {
		seed, every := a.seed, a.every
		t.Run(a.name, func(t *testing.T) {
			// Baseline 1: plain in-memory run.
			plain, err := exec.Command(bin, traceArgs(seed, "", every)...).Output()
			if err != nil {
				t.Fatalf("plain run: %v", err)
			}
			// Baseline 2: durable, uninterrupted.
			cleanDir := t.TempDir()
			clean, err := exec.Command(bin, traceArgs(seed, cleanDir, every)...).Output()
			if err != nil {
				t.Fatalf("clean durable run: %v", err)
			}
			if !bytes.Equal(plain, clean) {
				t.Fatalf("durable output differs from plain output before any crash:\n%s",
					firstDiff(plain, clean))
			}

			// Crash runs: pace ops, kill at seeded random delays.
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(seed))
			kills, recycled := 0, 0
			var out []byte
			for attempt := 0; attempt < 20; attempt++ {
				if attempt > 0 && newestSnapshotSeq(t, dir) >= uint64(3*every) {
					recycled++ // restarting on a journal two recycles deep
				}
				cmd := exec.Command(bin, append(traceArgs(seed, dir, every), "-op-delay", "300us")...)
				var stdout bytes.Buffer
				cmd.Stdout = &stdout
				if err := cmd.Start(); err != nil {
					t.Fatal(err)
				}
				if kills < 3 {
					// The recycling arm lets the journal go two recycles
					// deep first, so every restart recovers from them.
					for deadline := time.Now().Add(10 * time.Second); every == recycleSnapshotEvery &&
						newestSnapshotSeq(t, dir) < uint64(3*every) && time.Now().Before(deadline); {
						time.Sleep(time.Millisecond)
					}
					// Kill mid-run: the trace takes roughly 120 jobs x ~3
					// ops x 300us ≈ 100ms+; land inside it.
					delay := time.Duration(5+rng.Intn(60)) * time.Millisecond
					time.Sleep(delay)
					_ = cmd.Process.Kill() // SIGKILL: no cleanup, no final sync
					_ = cmd.Wait()
					kills++
					continue
				}
				if err := cmd.Wait(); err != nil {
					t.Fatalf("final resume: %v", err)
				}
				out = stdout.Bytes()
				break
			}
			if out == nil {
				t.Fatal("trace never ran to completion")
			}
			if !bytes.Equal(out, clean) {
				preserveWAL(t, seed, dir)
				t.Fatalf("decision log after %d kills diverged from crash-free run:\n%s",
					kills, firstDiff(clean, out))
			}
			t.Logf("seed %d: byte-identical after %d SIGKILLs, %d restarts on recycled files", seed, kills, recycled)
			if every == recycleSnapshotEvery && recycled == 0 {
				t.Fatalf("no restart found a snapshot at seq %d or later: recovery never crossed two recycles", 3*every)
			}
		})
	}
}

func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\nwant: %s\ngot:  %s", i+1, w, g)
		}
	}
	return "(outputs equal?)"
}

// TestCrashRecoveryServeIdempotent covers the live server: submit jobs with
// idempotency keys, SIGKILL the server, restart on the same journal, and
// check resubmitted keys return the original IDs while all submitted jobs
// reach terminal states queryable over HTTP.
func TestCrashRecoveryServeIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills subprocesses")
	}
	bin := buildIdxserve(t)
	dir := t.TempDir()

	startServer := func() (*exec.Cmd, string) {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dir,
			"-fsync", "always", "-executors", "2", "-tick", "2ms")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Parse the bound address from the startup banner.
		buf := make([]byte, 4096)
		var seen string
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			n, rerr := stdout.Read(buf)
			seen += string(buf[:n])
			if i := strings.Index(seen, "http://"); i >= 0 {
				rest := seen[i+len("http://"):]
				if j := strings.IndexAny(rest, " \n"); j >= 0 {
					go func() { _, _ = io.Copy(io.Discard, stdout) }()
					return cmd, "http://" + rest[:j]
				}
			}
			if rerr != nil {
				break
			}
		}
		t.Fatalf("server banner not seen; got: %q", seen)
		return nil, ""
	}

	type subResp struct {
		ID int64 `json:"id"`
	}
	submit := func(base, key string, tenant string) (int64, int) {
		req, _ := http.NewRequest("POST", base+"/jobs",
			strings.NewReader(fmt.Sprintf(`{"tenant":%q,"tasks":4,"rounds":1}`, tenant)))
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST /jobs: %v", err)
		}
		defer resp.Body.Close()
		var sr subResp
		_ = json.NewDecoder(resp.Body).Decode(&sr)
		return sr.ID, resp.StatusCode
	}

	cmd, base := startServer()
	ids := map[string]int64{}
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("crash-key-%d", i)
		id, code := submit(base, key, []string{"a", "b"}[i%2])
		if code != http.StatusAccepted || id == 0 {
			t.Fatalf("submit %s = id %d code %d", key, id, code)
		}
		ids[key] = id
	}
	// SIGKILL: no drain, no snapshot, no goodbye.
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()

	cmd2, base2 := startServer()
	defer func() {
		_ = cmd2.Process.Signal(syscall.SIGKILL)
		_, _ = cmd2.Process.Wait()
	}()
	// Exactly-once resubmission: every key maps to its original ID.
	for key, want := range ids {
		got, code := submit(base2, key, "a")
		if code != http.StatusAccepted || got != want {
			t.Fatalf("resubmit %s after crash = id %d code %d, want id %d", key, got, code, want)
		}
	}
	// Every job reaches a queryable terminal state (done: the synthetic
	// bodies are deterministic and re-run after recovery if needed).
	deadline := time.Now().Add(30 * time.Second)
	for key, id := range ids {
		for {
			resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base2, id))
			if err != nil {
				t.Fatalf("GET /jobs/%d: %v", id, err)
			}
			var info struct {
				State string `json:"state"`
			}
			err = json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("decode job %d: %v", id, err)
			}
			if resp.StatusCode == http.StatusOK && (info.State == "done" || info.State == "failed") {
				if info.State != "done" {
					t.Errorf("job %d (%s) after recovery: state %s", id, key, info.State)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d (%s) never reached terminal state (last: %d %s)",
					id, key, resp.StatusCode, info.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}
