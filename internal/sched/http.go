package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/rt"
)

// Job-submission HTTP API, mounted beside the metrics endpoints:
//
//	POST /jobs       submit a job (JSON body, SubmitRequest)
//	GET  /jobs/{id}  one job's state (JobInfo)
//	GET  /trace      recent retained traces (tail-sampled)
//	GET  /trace/{id} one retained trace by hex trace ID or decimal job ID
//	GET  /metrics    Prometheus text, including the sched_* families
//	GET  /statusz    scheduler status with the per-tenant queue table
//
// Backpressure maps onto HTTP the standard way: an admission rejection is a
// 429 with a Retry-After header derived from the scheduler's retry hint,
// jittered so a burst of rejected clients does not stampede back in
// lockstep. POST /jobs honors an Idempotency-Key header: resubmitting a key
// the scheduler accepted a job under returns that job's ID — across server
// restarts when the scheduler is durable, since the key table rides in the
// journal. Job IDs are dense, so GET /jobs/{id} distinguishes IDs that were
// never assigned (404) from assigned IDs whose state is gone — evicted from
// the bounded terminal retention, or consumed by a rejected submission
// (410). A job whose finish is written but not yet durable answers once the
// commit already carrying it lands: done or failed, not running.

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	// Tenant, Priority, Cost, DeadlineTicks mirror JobSpec.
	Tenant        string `json:"tenant"`
	Priority      int    `json:"priority"`
	Cost          int64  `json:"cost"`
	DeadlineTicks int64  `json:"deadline_ticks"`
	// Kind selects the job body from DefaultKinds; empty defaults to
	// "synthetic".
	Kind string `json:"kind"`
	// Tasks and Rounds parameterize the synthetic kind: Rounds index
	// launches of Tasks parallel tasks each, at most MaxSyntheticTasks and
	// MaxSyntheticRounds.
	Tasks  int `json:"tasks"`
	Rounds int `json:"rounds"`
}

// MaxSyntheticTasks and MaxSyntheticRounds bound a synthetic submission. A
// launch holds one result slot per task, so an unbounded request could
// exhaust memory, and a journaled one would do so again at recovery; POST
// /jobs answers a larger value with 400 before admission and the journal.
const (
	MaxSyntheticTasks  = 65536
	MaxSyntheticRounds = 1024
)

// SubmitResponse is the POST /jobs success payload.
type SubmitResponse struct {
	ID JobID `json:"id"`
}

// KindFunc builds a job body from a submission — how the HTTP API maps
// wire requests onto Go run functions.
type KindFunc func(req SubmitRequest) (RunFunc, error)

// SyntheticTaskName is the task variant New registers, through
// syntheticSetup, on each executor runtime.
const SyntheticTaskName = "sched_spin"

// SyntheticEval is the synthetic spin body for one launch index: a small
// deterministic mix seeded by x. Exported so cluster worker daemons
// (cmd/idxnode) can run the exact same computation for remote points that
// syntheticSetup registers locally.
func SyntheticEval(x int64) []byte {
	v := uint64(x) + 0x9e3779b97f4a7c15
	for i := 0; i < 64; i++ {
		v ^= v >> 33
		v *= 0xff51afd7ed558ccd
	}
	return rt.EncodeF64(float64(v % 1000))
}

// syntheticSetup registers the synthetic spin task on r, as New does on
// every executor runtime. The task is pure compute over its launch index,
// so it needs no region requirements.
func syntheticSetup(r *rt.Runtime) error {
	_, err := r.RegisterTask(SyntheticTaskName, func(ctx *rt.Context) ([]byte, error) {
		return SyntheticEval(ctx.Point.X()), nil
	})
	return err
}

// SyntheticRun returns a job body issuing rounds index launches of tasks
// parallel tasks each on its executor's runtime, checking for cooperative
// preemption between rounds.
func SyntheticRun(tasks, rounds int) RunFunc {
	if tasks < 1 {
		tasks = 8
	}
	if rounds < 1 {
		rounds = 1
	}
	return func(jc *JobContext, r *rt.Runtime) error {
		id, ok := r.TaskNamed(SyntheticTaskName)
		if !ok {
			return fmt.Errorf("sched: synthetic task %q not registered (sched.New registers it on every executor)", SyntheticTaskName)
		}
		for round := 0; round < rounds; round++ {
			select {
			case <-jc.Preempted():
				return ErrPreempted
			default:
			}
			launch, err := core.Forall(SyntheticTaskName, id, domain.Range1(0, int64(tasks-1)))
			if err != nil {
				return err
			}
			if _, err := r.ExecuteIndex(launch); err != nil {
				return err
			}
		}
		return nil
	}
}

// DefaultKinds is the job-kind registry: just the synthetic workload. The
// HTTP API builds a submission's body from it and recovery rebuilds a
// journaled submission's from it, so every kind a POST accepts is one a
// restart can run.
func DefaultKinds() map[string]KindFunc {
	return map[string]KindFunc{
		"synthetic": func(req SubmitRequest) (RunFunc, error) {
			if req.Tasks > MaxSyntheticTasks || req.Rounds > MaxSyntheticRounds {
				return nil, fmt.Errorf("synthetic job of %d tasks x %d rounds exceeds the bound of %d x %d",
					req.Tasks, req.Rounds, MaxSyntheticTasks, MaxSyntheticRounds)
			}
			return SyntheticRun(req.Tasks, req.Rounds), nil
		},
	}
}

// buildRun builds req's job body from kinds; an empty kind is "synthetic".
func buildRun(kinds map[string]KindFunc, req SubmitRequest) (RunFunc, error) {
	kind := req.Kind
	if kind == "" {
		kind = "synthetic"
	}
	kf := kinds[kind]
	if kf == nil {
		return nil, fmt.Errorf("unknown job kind %q", kind)
	}
	return kf(req)
}

// Handler serves the job API and, underneath it, the metrics endpoints
// (/metrics, /metrics.json, /statusz with the scheduler's tenant table).
func Handler(s *Scheduler) http.Handler {
	kinds := DefaultKinds()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, req *http.Request) {
		var sr SubmitRequest
		if err := json.NewDecoder(req.Body).Decode(&sr); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
			return
		}
		run, err := buildRun(kinds, sr)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		spec := JobSpec{
			Tenant:   sr.Tenant,
			Priority: sr.Priority,
			Cost:     sr.Cost,
			Deadline: sr.DeadlineTicks,
			Run:      run,
			Request:  &sr,
		}
		id, err := s.SubmitIdempotent(spec, req.Header.Get("Idempotency-Key"))
		if err != nil {
			var rej *RejectError
			switch {
			case errors.As(err, &rej):
				if rej.RetryAfter > 0 {
					d := jitterRetryAfter(rej.RetryAfter, retryJitterSeq.Add(1))
					secs := int64(d.Seconds())
					if secs < 1 {
						secs = 1
					}
					w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
				}
				httpError(w, http.StatusTooManyRequests, err)
			case errors.Is(err, ErrSchedulerClosed):
				httpError(w, http.StatusServiceUnavailable, err)
			default:
				httpError(w, http.StatusBadRequest, err)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(SubmitResponse{ID: id})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.ParseInt(req.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad job id: %w", err))
			return
		}
		info, res := s.lookupCommitted(JobID(id))
		switch res {
		case LookupGone:
			httpError(w, http.StatusGone, fmt.Errorf("job %d retired from retention", id))
			return
		case LookupUnknown:
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %d", id))
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(info)
	})
	// Trace queries; the handler is nil-tracer-safe, so the routes exist
	// (answering 404) even when tracing is off.
	th := s.Tracer().Handler()
	mux.Handle("GET /trace", th)
	mux.Handle("GET /trace/{id}", th)
	mux.Handle("/", metrics.Handler(s.Registry(), func() any { return s.Status() }))
	return mux
}

// retryJitterSeq feeds jitterRetryAfter one draw index per rejection.
var retryJitterSeq atomic.Uint64

// jitterRetryAfter spreads a retry hint over [d, 3d/2): every rejected
// client gets at least the scheduler's estimate, and the extra half-hint of
// splitmix64-hashed jitter de-synchronizes a burst of rejections so they do
// not all retry on the same instant (anti-thundering-herd). Pure function
// of (d, n), which is what the bounds test locks down.
func jitterRetryAfter(d time.Duration, n uint64) time.Duration {
	if d <= 0 {
		return d
	}
	rng := splitmix64{s: n}
	const steps = 1024
	frac := float64(rng.next()%steps) / steps // [0, 1)
	return d + time.Duration(frac*float64(d)/2)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// Server is an embedded scheduler API listener started by Serve.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the job API plus metrics endpoints on addr (":0" selects an
// ephemeral port) until Close.
func Serve(addr string, s *Scheduler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sched: listen %s: %w", addr, err)
	}
	srv := &Server{ln: ln, srv: &http.Server{Handler: Handler(s)}}
	go func() { _ = srv.srv.Serve(ln) }()
	return srv, nil
}

// Addr returns the listener's resolved address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the listener.
func (s *Server) Close() error { return s.srv.Close() }
