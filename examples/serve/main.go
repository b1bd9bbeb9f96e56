// Serve: the multi-tenant job scheduler end to end.
//
// Act one starts a scheduler with a weighted fair-share queue over a pool
// of index-launch runtimes, submits a burst of synthetic jobs from three
// tenants through the HTTP API, lets the pool drain, and reads the
// per-tenant outcome back from /statusz — the same table an operator sees.
//
// Act two makes the scheduler durable: jobs submitted with idempotency
// keys are journaled to a write-ahead log, the process "restarts" (the
// scheduler is torn down and reopened on the same directory), and the
// recovered instance answers for the old jobs — same IDs for resubmitted
// keys, terminal states still queryable. The CI crash-recovery matrix
// proves the stronger version of this with SIGKILL mid-run.
//
//	go run ./examples/serve
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"indexlaunch/internal/rt"
	"indexlaunch/internal/sched"
)

func main() {
	// Three tenants with 1:2:4 fair-share weights, a bounded queue, and two
	// executors, each a 4-node simulated machine whose message transport is
	// reused across jobs.
	adm := sched.Admission{
		MaxQueued: 256,
		Tenants: map[string]sched.Quota{
			"bronze": {Weight: 1},
			"silver": {Weight: 2},
			"gold":   {Weight: 4},
		},
	}
	s, err := sched.New(sched.Config{
		Executors: 2,
		Runtime:   rt.Config{Nodes: 4, ProcsPerNode: 2, IndexLaunches: true},
		Queue:     sched.NewWeightedFair(1, adm.Weights(), 1),
		Admission: adm,
		TickEvery: time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := sched.Serve("127.0.0.1:0", s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduler serving on %s (fair queue, weights 1:2:4)\n", srv.Addr())

	// A burst: every tenant submits 8 synthetic jobs over HTTP.
	for i := 0; i < 8; i++ {
		for _, tenant := range []string{"bronze", "silver", "gold"} {
			body, _ := json.Marshal(sched.SubmitRequest{
				Tenant: tenant, Tasks: 16, Rounds: 2,
			})
			resp, err := http.Post(srv.URL()+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				log.Fatal(err)
			}
			if resp.StatusCode != http.StatusAccepted {
				log.Fatalf("POST /jobs: %s", resp.Status)
			}
			resp.Body.Close()
		}
	}

	// Graceful drain: admission closes, queued and running jobs finish.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		log.Fatal(err)
	}

	// The per-tenant table from /statusz, as an operator would read it.
	var sz struct {
		Status sched.Status `json:"status"`
	}
	resp, err := http.Get(srv.URL() + "/statusz")
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sz); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	fmt.Println("fair-share outcome by tenant:")
	var total int64
	for _, ts := range sz.Status.Tenants {
		fmt.Printf("  %-8s weight %d: enqueued %2d admitted %2d completed %2d failed %d\n",
			ts.Tenant, ts.Weight, ts.Enqueued, ts.Admitted, ts.Completed, ts.Failed)
		total += ts.Completed
	}
	fmt.Printf("completed %d jobs over %d scheduler decisions\n", total, sz.Status.Decisions)

	s.Shutdown()
	_ = srv.Close()

	durableDemo()
}

// durableDemo journals a scheduler's decisions to a write-ahead log,
// restarts it on the same directory, and shows the recovered instance
// answering for jobs the previous incarnation accepted.
func durableDemo() {
	dir, err := os.MkdirTemp("", "serve-journal-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := func() sched.Config {
		return sched.Config{
			Executors: 2,
			Runtime:   rt.Config{Nodes: 4, ProcsPerNode: 2, IndexLaunches: true},
			Queue:     sched.NewFIFO(),
			Admission: sched.Admission{MaxQueued: 64},
			TickEvery: time.Millisecond,
			Durable:   sched.DurableOptions{Dir: dir},
		}
	}

	// First incarnation: accept jobs under idempotency keys, run them to
	// completion, stop. Every decision went through the journal first.
	s1, err := sched.New(cfg())
	if err != nil {
		log.Fatal(err)
	}
	keys := []string{"nightly-report", "reindex-shard-3"}
	ids := map[string]sched.JobID{}
	for _, key := range keys {
		req := sched.SubmitRequest{Tenant: "ops", Tasks: 16, Rounds: 1}
		id, err := s1.SubmitIdempotent(sched.JobSpec{
			Tenant: req.Tenant, Run: sched.SyntheticRun(req.Tasks, req.Rounds),
			Request: &req,
		}, key)
		if err != nil {
			log.Fatal(err)
		}
		if err := s1.Wait(id); err != nil {
			log.Fatal(err)
		}
		ids[key] = id
	}
	s1.Shutdown()

	// Second incarnation, same directory: the journal replays and the new
	// process answers for the old one.
	s2, err := sched.New(cfg())
	if err != nil {
		log.Fatal(err)
	}
	defer s2.Shutdown()
	rep := s2.Recovery()
	fmt.Printf("durable restart: recovered=%v snapshot=%v decisions=%d\n",
		rep.Recovered, rep.SnapshotLoaded, rep.Decisions)
	for _, key := range keys {
		req := sched.SubmitRequest{Tenant: "ops", Tasks: 16, Rounds: 1}
		id, err := s2.SubmitIdempotent(sched.JobSpec{
			Tenant: req.Tenant, Run: sched.SyntheticRun(req.Tasks, req.Rounds),
			Request: &req,
		}, key)
		if err != nil {
			log.Fatal(err)
		}
		info, res := s2.Lookup(id)
		fmt.Printf("  key %-15s -> job %d (was %d), state after restart: %s (%v)\n",
			key, id, ids[key], info.State, res == sched.LookupFound)
		if id != ids[key] {
			log.Fatalf("idempotency key %q remapped: %d != %d", key, id, ids[key])
		}
	}
}
