package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indexlaunch/internal/obs"
)

// Poll schedule of a waiting client: immediately after the submit returns,
// then after pollFirst, doubling to pollCap. It is fixed because it sets the
// latency floor: a job is seen done at most one poll interval late.
const (
	pollFirst = 100 * time.Microsecond
	pollCap   = time.Millisecond
	// jobTimeout bounds one job; past it the job counts as failed.
	jobTimeout = 30 * time.Second
	stopGrace  = 10 * time.Second
	bannerWait = 20 * time.Second
)

// httpSystem is idxserve (plus idxnode workers in cluster mode), each its own
// OS process on 127.0.0.1:0 ports discovered from the banners, and the
// closed-loop HTTP clients that drive it.
type httpSystem struct {
	w       *workload
	dir     string // scratch directory of this instance (journal), removed on close
	serve   *proc
	workers []*proc
	base    string   // idxserve http base URL
	metrics []string // every process's metrics base URL

	clients []*httpClient
	scraper *http.Client

	issued   atomic.Int64 // launch points of accepted jobs
	accepted atomic.Int64
	baseline samples // scrape taken before the first job

	stopping atomic.Bool
	deadMu   sync.Mutex
	dead     *proc // first child that exited without being asked to
}

// httpClient is one closed-loop submitter: its own keep-alive connection and
// its own seeded stream of job shapes.
type httpClient struct {
	hc  *http.Client
	rng *rand.Rand
	seq uint64 // jobs generated, for span ids
}

// startHTTP spawns the daemons of w: idxserve with args, journalling under
// scratch when durable, behind w.Workers idxnode workers.
func startHTTP(w *workload, args []string, durable bool, binDir, scratch string, seed int64) (*httpSystem, error) {
	s := &httpSystem{w: w, dir: scratch, scraper: &http.Client{Timeout: 10 * time.Second}}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	serveArgs := []string{"-addr", "127.0.0.1:0"}
	if w.Workers > 0 {
		var wire []string
		for n := 1; n <= w.Workers; n++ {
			p, err := startProc(fmt.Sprintf("idxnode[%d]", n), filepath.Join(binDir, "idxnode"), []string{
				"-node", strconv.Itoa(n), "-nodes", strconv.Itoa(w.Workers + 1),
				"-listen", "127.0.0.1:0", "-addr", "127.0.0.1:0",
			}, s.childExited)
			if err != nil {
				return nil, err
			}
			s.workers = append(s.workers, p)
			maddr, err := p.banner("metrics on http://", bannerWait)
			if err != nil {
				return nil, err
			}
			waddr, err := p.banner("listening on ", bannerWait)
			if err != nil {
				return nil, err
			}
			s.metrics = append(s.metrics, "http://"+maddr)
			wire = append(wire, waddr)
		}
		serveArgs = append(serveArgs, "-cluster", strings.Join(wire, ","))
	}
	if durable {
		serveArgs = append(serveArgs, "-data", filepath.Join(scratch, "data"), "-fsync", "always")
	}
	serveArgs = append(serveArgs, args...)
	p, err := startProc("idxserve", filepath.Join(binDir, "idxserve"), serveArgs, s.childExited)
	if err != nil {
		return nil, err
	}
	s.serve = p
	addr, err := p.banner("job API and metrics on http://", bannerWait)
	if err != nil {
		return nil, err
	}
	s.base = "http://" + addr
	s.metrics = append([]string{s.base}, s.metrics...)

	for c := 0; c < w.Clients; c++ {
		s.clients = append(s.clients, &httpClient{
			hc: &http.Client{
				Timeout:   10 * time.Second,
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			},
			rng: rand.New(rand.NewSource(int64(obs.Mix64(uint64(seed)) ^ obs.Mix64(uint64(c)+1)))),
		})
	}
	if s.baseline, err = s.scrape(); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// childExited runs when any daemon ends; outside close() that is a death.
func (s *httpSystem) childExited(p *proc) {
	if s.stopping.Load() {
		return
	}
	s.deadMu.Lock()
	if s.dead == nil {
		s.dead = p
	}
	s.deadMu.Unlock()
}

func (s *httpSystem) deadChild() *proc {
	s.deadMu.Lock()
	defer s.deadMu.Unlock()
	return s.dead
}

// transportErr classifies a failed HTTP round trip. A refused or reset
// connection usually means the server just died, and its exit is reported a
// moment after the socket closes, so give the watcher a moment to see it.
func (s *httpSystem) transportErr(err error) error {
	for wait := time.Duration(0); wait < 500*time.Millisecond; wait += 5 * time.Millisecond {
		if s.deadChild() != nil {
			return fmt.Errorf("%w: %v", errSystemDead, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return err
}

// nextJob draws the client's next job: a tenant of defs.Tenants and the
// workload's task count jittered by ±defs.TaskJitter. The servers see only
// the generated requests.
func (s *httpSystem) nextJob(cl *httpClient) (body string, points int64) {
	d := s.w.defs
	tenant := cl.rng.Intn(d.Tenants)
	spread := int(float64(s.w.Tasks) * d.TaskJitter)
	tasks := s.w.Tasks - spread + cl.rng.Intn(2*spread+1)
	cl.seq++
	return fmt.Sprintf(`{"tenant":"t%d","tasks":%d,"rounds":%d}`, tenant, tasks, s.w.Rounds),
		int64(tasks * s.w.Rounds)
}

// op submits one job and polls it to a terminal state.
func (s *httpSystem) op(c int, tr tracer) (int64, error) {
	cl := s.clients[c]
	body, points := s.nextJob(cl)
	root := obs.NewTraceRef(uint64(c+1)<<48 | cl.seq)
	jobStart := tr.now()
	defer func() { tr.span(root, c, spanJob, jobStart, tr.now()) }()

	resp, err := cl.hc.Post(s.base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, s.transportErr(err)
	}
	var sub struct {
		ID int64 `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	drain(resp)
	tr.span(root.Child(0), c, spanSubmit, jobStart, tr.now())
	if resp.StatusCode != http.StatusAccepted || err != nil {
		// Refused (429), server error (5xx) or unreadable: the job is failed
		// and has no latency.
		return 0, fmt.Errorf("POST /jobs: %s (decode: %v)", resp.Status, err)
	}
	s.issued.Add(points)
	s.accepted.Add(1)

	url := s.base + "/jobs/" + strconv.FormatInt(sub.ID, 10)
	waitTC := root.Child(1)
	waitStart := tr.now()
	defer func() { tr.span(waitTC, c, spanWait, waitStart, tr.now()) }()
	deadline := time.Now().Add(jobTimeout)
	sleep := pollFirst
	for n := uint64(0); ; n++ {
		pollStart := tr.now()
		resp, err := cl.hc.Get(url)
		if err != nil {
			return points, s.transportErr(err)
		}
		var info struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		drain(resp)
		tr.span(waitTC.Child(n), c, spanPoll, pollStart, tr.now())
		switch {
		case err != nil || resp.StatusCode != http.StatusOK:
			return points, fmt.Errorf("GET %s: %s (decode: %v)", url, resp.Status, err)
		case info.State == "done":
			return points, nil
		case info.State == "failed":
			return points, fmt.Errorf("job %d failed: %s", sub.ID, info.Error)
		case time.Now().After(deadline):
			return points, fmt.Errorf("job %d still %s after %v", sub.ID, info.State, jobTimeout)
		}
		time.Sleep(sleep)
		sleep = min(2*sleep, pollCap)
	}
}

// drain reads a response to its end and closes it, which is what lets the
// keep-alive connection be reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// scrape sums the /metrics of idxserve and every idxnode.
func (s *httpSystem) scrape() (samples, error) {
	all := samples{}
	for _, base := range s.metrics {
		m, err := scrapeURL(s.scraper, base)
		if err != nil {
			return nil, s.transportErr(err)
		}
		all.add(m)
	}
	return all, nil
}

// check holds the servers' own counters against what the harness submitted:
// every accepted job completed and none failed, the runtime executed exactly
// the submitted points, and in cluster mode no remote execution failed.
func (s *httpSystem) check() error {
	now, err := s.scrape()
	if err != nil {
		return err
	}
	d := s.baseline.delta(now)
	if got, want := int64(d.sum("idx_tasks_executed_total")), s.issued.Load(); got != want {
		return fmt.Errorf("idx_tasks_executed_total grew by %d, harness submitted %d points", got, want)
	}
	if got, want := int64(d.sum("sched_completed_total")), s.accepted.Load(); got != want {
		return fmt.Errorf("sched_completed_total grew by %d, harness had %d jobs accepted", got, want)
	}
	if n := d.sum("sched_failed_total"); n != 0 {
		return fmt.Errorf("sched_failed_total grew by %v", n)
	}
	if n := d.sum("wire_exec_errors_total"); n != 0 {
		return fmt.Errorf("wire_exec_errors_total grew by %v", n)
	}
	return nil
}

func (s *httpSystem) postMortem() string {
	if p := s.deadChild(); p != nil {
		return p.lastStderr()
	}
	return ""
}

// close stops idxserve first (it drains), then the workers, waits for each,
// and removes the scratch directory.
func (s *httpSystem) close() {
	s.stopping.Store(true)
	for _, cl := range s.clients {
		cl.hc.CloseIdleConnections()
	}
	if s.serve != nil {
		s.serve.stop(stopGrace)
	}
	for _, p := range s.workers {
		p.stop(stopGrace)
	}
	_ = os.RemoveAll(s.dir)
}

// workerPoints parses each stopped idxnode's "N points executed" summary.
// close must have run. A worker that executed nothing means points fell back
// to local execution on node 0, which the cluster workload must not hide.
func (s *httpSystem) workerPoints() ([]int64, error) {
	var out []int64
	for _, p := range s.workers {
		n := int64(-1)
		for _, line := range p.lines(&p.stdout) {
			if i := strings.Index(line, "stopping: "); i >= 0 {
				f := strings.Fields(line[i+len("stopping: "):])
				if len(f) > 0 {
					if v, err := strconv.ParseInt(f[0], 10, 64); err == nil {
						n = v
					}
				}
			}
		}
		if n <= 0 {
			return out, fmt.Errorf("%s executed %d points (no shutdown summary counts as -1)", p.name, n)
		}
		out = append(out, n)
	}
	return out, nil
}
