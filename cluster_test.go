package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"indexlaunch/internal/trace"
)

// Multi-process cluster smoke test: three idxnode worker daemons and one
// idxserve -cluster launcher, each a separate OS process, talking over real
// localhost TCP sockets. A traced synthetic job must run to completion with
// launch points executing on every worker — shipped as one Exec request per
// (launch, worker), not per point — and its trace.LaunchShape must be
// identical to the same job run on the in-process loopback path: the cluster
// changes where bodies run, never the launch structure.

// buildBinary compiles one cmd/ package into the test's temp dir.
func buildBinary(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

// startProc starts bin with args and scans its stdout until every wanted
// banner substring has appeared, returning the full output seen so far.
// The process is SIGKILLed (and reaped) on test cleanup.
func startProc(t *testing.T, bin string, args []string, wants ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGKILL)
		_, _ = cmd.Process.Wait()
	})
	buf := make([]byte, 4096)
	var seen string
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, w := range wants {
			if !strings.Contains(seen, w) {
				all = false
				break
			}
		}
		if all {
			go func() { _, _ = io.Copy(io.Discard, stdout) }()
			return cmd, seen
		}
		n, rerr := stdout.Read(buf)
		seen += string(buf[:n])
		if rerr != nil && n == 0 {
			break
		}
	}
	t.Fatalf("%s banner %q not seen; got: %q", filepath.Base(bin), wants, seen)
	return nil, ""
}

// bannerAddr extracts the address that follows marker on one stdout line.
func bannerAddr(t *testing.T, seen, marker string) string {
	t.Helper()
	i := strings.Index(seen, marker)
	if i < 0 {
		t.Fatalf("marker %q not in %q", marker, seen)
	}
	rest := seen[i+len(marker):]
	if j := strings.IndexAny(rest, " \n"); j >= 0 {
		rest = rest[:j]
	}
	return strings.TrimSpace(rest)
}

// submitJob submits one synthetic job of rounds launches of tasks points
// against base and returns its ID.
func submitJob(t *testing.T, base string, tasks, rounds int) int64 {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"tenant":"a","tasks":%d,"rounds":%d}`, tasks, rounds)))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	var sub struct {
		ID int64 `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || sub.ID == 0 {
		t.Fatalf("submit: id %d code %d err %v", sub.ID, resp.StatusCode, err)
	}
	return sub.ID
}

// waitJob polls job id until it is done, failing the test if it fails or
// is still unfinished after limit.
func waitJob(t *testing.T, base string, id int64, limit time.Duration) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, id))
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
		if resp.StatusCode == http.StatusOK && info.State == "done" {
			return
		}
		if info.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %d state %s", id, info.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runTracedJob submits one synthetic job against base, waits for it to
// finish, and returns its launch shape from the trace API.
func runTracedJob(t *testing.T, base string) string {
	t.Helper()
	id := submitJob(t, base, 24, 2)
	waitJob(t, base, id, 60*time.Second)
	// -trace-sample 1 head-samples everything, so the finished job's trace
	// is retained and queryable by decimal job ID.
	var tr trace.Trace
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/trace/%d", base, id))
		if err != nil {
			t.Fatalf("GET /trace/%d: %v", id, err)
		}
		err = json.NewDecoder(resp.Body).Decode(&tr)
		code := resp.StatusCode
		resp.Body.Close()
		if err == nil && code == http.StatusOK && len(tr.Spans) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace for job %d never retained (last: %d %v)", id, code, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return trace.LaunchShape(tr.Spans)
}

// scrapeCounter reads one unlabeled sample from base's /metrics exposition.
func scrapeCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("%s not in /metrics", name)
	return 0
}

// workerStatus is the part of an idxnode /statusz payload the tests read.
type workerStatus struct {
	Node     int   `json:"node"`
	Executed int64 `json:"executed"`
	Slices   int   `json:"slices"`
}

// readWorkerStatus fetches the /statusz of the worker serving metrics on
// addr.
func readWorkerStatus(t *testing.T, addr string) workerStatus {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/statusz")
	if err != nil {
		t.Fatalf("worker statusz: %v", err)
	}
	defer resp.Body.Close()
	// metrics.Handler wraps the StatusFunc payload under "status".
	var wrapped struct {
		Status workerStatus `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wrapped); err != nil {
		t.Fatalf("worker statusz decode: %v", err)
	}
	return wrapped.Status
}

// startCluster starts one idxnode per worker node 1..nodes-1, each with a
// metrics endpoint, then idxserve -cluster over them. It returns the
// workers' processes and metrics addresses and idxserve's base URL.
func startCluster(t *testing.T, idxnode, idxserve string, nodes int, serveArgs ...string) (workers []*exec.Cmd, statusAddrs []string, base string) {
	t.Helper()
	wireAddrs := make([]string, 0, nodes-1)
	for n := 1; n < nodes; n++ {
		cmd, seen := startProc(t, idxnode, []string{
			"-node", fmt.Sprint(n), "-nodes", fmt.Sprint(nodes),
			"-listen", "127.0.0.1:0", "-addr", "127.0.0.1:0",
		}, "listening on ", "metrics on http://")
		workers = append(workers, cmd)
		wireAddrs = append(wireAddrs, bannerAddr(t, seen, "listening on "))
		statusAddrs = append(statusAddrs, bannerAddr(t, seen, "metrics on http://"))
	}
	_, seen := startProc(t, idxserve, append([]string{
		"-addr", "127.0.0.1:0", "-cluster", strings.Join(wireAddrs, ","),
		"-procs", "2", "-tick", "2ms",
	}, serveArgs...), "http://", "cluster mode")
	return workers, statusAddrs, "http://" + bannerAddr(t, seen, "http://")
}

func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	idxserve := buildBinary(t, "idxserve")
	// Three workers, mesh nodes 1..3 of 4, each with a metrics endpoint so
	// the test can interrogate its execution counters.
	const nodes = 4
	_, statusAddrs, base := startCluster(t, buildBinary(t, "idxnode"), idxserve, nodes, "-trace-sample", "1")

	clusterShape := runTracedJob(t, base)
	if !strings.Contains(clusterShape, "issue:"+syntheticTag+" execute=24") {
		t.Fatalf("cluster launch shape: %q", clusterShape)
	}

	// The job's two launches shipped as slices: at most one Exec request per
	// (launch, worker), none of them failed.
	const launches = 2
	if got := scrapeCounter(t, base, "wire_execs_total"); got == 0 || got > launches*(nodes-1) {
		t.Fatalf("wire_execs_total = %v, want 1..%d (one per launch and worker)", got, launches*(nodes-1))
	}
	if got := scrapeCounter(t, base, "wire_exec_errors_total"); got != 0 {
		t.Fatalf("wire_exec_errors_total = %v, want 0", got)
	}

	// Every worker process must have executed launch points: the job's
	// domain block-maps 24 points over 4 nodes, so nodes 1..3 each own a
	// slice of every round.
	for i, sa := range statusAddrs {
		st := readWorkerStatus(t, sa)
		if st.Node != i+1 || st.Executed == 0 {
			t.Fatalf("worker %d executed %d points (statusz: %+v)", i+1, st.Executed, st)
		}
		if st.Slices == 0 {
			t.Fatalf("worker %d received no slice descriptors", i+1)
		}
	}

	// The same job on the in-process loopback path (same machine shape, no
	// cluster) must produce the identical launch structure.
	_, seen := startProc(t, idxserve, []string{
		"-addr", "127.0.0.1:0", "-nodes", fmt.Sprint(nodes), "-executors", "1",
		"-procs", "2", "-tick", "2ms", "-trace-sample", "1",
	}, "http://")
	loopBase := "http://" + bannerAddr(t, seen, "http://")
	loopShape := runTracedJob(t, loopBase)

	if clusterShape != loopShape {
		t.Fatalf("launch shape diverged:\ncluster:\n%s\nloopback:\n%s", clusterShape, loopShape)
	}
}

// TestClusterWorkerKilledMidJob is the served failure model on real
// processes: worker 2 of three is SIGKILLed while a multi-launch job runs
// on it. Nothing detects the death; each slice shipped to the dead worker
// fails with ErrUnreachable once the mesh's ExecTimeout runs out and its
// points run on the launcher instead. The job and the next one must still
// finish, and every point must be committed exactly once.
func TestClusterWorkerKilledMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and waits out exec timeouts")
	}
	const nodes, tasks, rounds = 4, 1024, 64
	workers, statusAddrs, base := startCluster(t, buildBinary(t, "idxnode"), buildBinary(t, "idxserve"), nodes)

	first := submitJob(t, base, tasks, rounds)
	for deadline := time.Now().Add(30 * time.Second); readWorkerStatus(t, statusAddrs[1]).Executed == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker 2 never executed a point")
		}
		time.Sleep(time.Millisecond)
	}
	if err := workers[1].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = workers[1].Process.Wait()
	killed := time.Now()
	waitJob(t, base, first, 5*time.Minute)
	t.Logf("job 1 (%d launches of %d points): done %v after the kill", rounds, tasks, time.Since(killed).Round(time.Millisecond))

	// Every launch of job 2 ships a slice to the dead worker and waits out
	// the mesh's ExecTimeout for it; the launches are issued back to back,
	// so they wait concurrently and the job takes about one timeout.
	start := time.Now()
	waitJob(t, base, submitJob(t, base, tasks, rounds), 5*time.Minute)
	t.Logf("job 2 (%d launches of %d points, all after the kill): done in %v",
		rounds, tasks, time.Since(start).Round(time.Millisecond))

	if got, want := scrapeCounter(t, base, "idx_tasks_executed_total"), float64(2*tasks*rounds); got != want {
		t.Errorf("idx_tasks_executed_total = %v, want %v: a point was committed twice or not at all", got, want)
	}
	if got := scrapeCounter(t, base, "wire_exec_errors_total"); got < 1 {
		t.Errorf("wire_exec_errors_total = %v, want >= 1: no slice to the dead worker failed", got)
	}
}

const syntheticTag = "sched_spin"
