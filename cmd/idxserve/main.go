// Command idxserve runs the multi-tenant job scheduler as a service: a
// bounded executor pool of index-launch runtimes behind admission control,
// with a job-submission HTTP API and live metrics.
//
//	idxserve -addr 127.0.0.1:8080 -executors 4 -queue fair -weights a=1,b=2,c=4
//	curl -s -X POST localhost:8080/jobs -d '{"tenant":"a","tasks":64,"rounds":4}'
//	curl -s localhost:8080/statusz        # per-tenant queue table
//	curl -s localhost:8080/metrics | grep sched_
//
// With -trace-sample (and optionally -trace-dir for a durable store) every
// job is traced end to end — sched admission, runtime pipeline stages,
// transport hops — and the tail sampler retains failed, preempted, retried,
// slow and head-sampled traces for the /trace query API:
//
//	idxserve -trace-sample 0.1 -trace-dir /tmp/idxtraces
//	curl -s localhost:8080/trace          # retained-trace summaries
//	curl -s localhost:8080/trace/3        # job 3's span tree (if retained)
//
// One offline mode shares the flag set:
//
//	idxserve -trace -seed 42 -jobs 400    # print the deterministic decision log
//
// It replays a seeded arrival trace through the policy core on a virtual
// clock; its output is byte-identical per seed, which is what the CI
// scheduler seed matrix locks in.
//
// With -data DIR the scheduler is durable: every admission decision is
// journaled to a write-ahead log and durable per the sync policy before it
// is acknowledged, and a restart recovers queue, quota and terminal-job
// state from the directory. -fsync picks the policy (always | interval |
// never); always is power-loss safe and group-committed, not one fsync per
// record. Durable trace mode
// (-trace -data DIR) resumes a killed run and still prints the byte-exact
// crash-free decision log — the property the CI crash-recovery matrix
// SIGKILLs the process mid-run to verify; -op-delay paces it so the kill
// lands mid-trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/sched"
	"indexlaunch/internal/trace"
	"indexlaunch/internal/wal"
	"indexlaunch/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "serve the job API, /metrics and /statusz on this address")
	executors := flag.Int("executors", 2, "executor pool size (jobs running concurrently)")
	nodes := flag.Int("nodes", 4, "simulated nodes per executor runtime")
	procs := flag.Int("procs", 2, "processors per simulated node")
	dcr := flag.Bool("dcr", false, "dynamic control replication in executor runtimes (off keeps the centralized path, whose message transport is reused across jobs)")
	cluster := flag.String("cluster", "", "cluster mode: comma-separated idxnode wire addresses; this process becomes mesh node 0 and launch points map onto the workers over TCP (forces -executors 1, overrides -nodes, excludes -dcr)")
	queue := flag.String("queue", "fifo", "queue discipline: fifo | priority | fair")
	weights := flag.String("weights", "", "fair-share weights as tenant=weight[,tenant=weight...]")
	rate := flag.Float64("rate", 0, "default per-tenant admission rate in jobs/tick (0 = unlimited)")
	burst := flag.Float64("burst", 0, "default admission burst (0 = max(rate, 1))")
	maxQueued := flag.Int("max-queued", 1024, "global queue bound")
	preempt := flag.Bool("preempt", false, "cooperative preemption of lower-priority running jobs")
	tick := flag.Duration("tick", 5*time.Millisecond, "scheduler tick period (bucket refill + live-node capacity feedback)")

	dataDir := flag.String("data", "", "durable mode: journal scheduler state into this directory (empty = in-memory)")
	fsync := flag.String("fsync", "interval", "with -data: journal sync policy: always | interval | never")
	fsyncEvery := flag.Duration("fsync-interval", 100*time.Millisecond, "with -fsync interval: coalescing window")
	snapEvery := flag.Int("snapshot-every", 0, "with -data: snapshot cadence in journaled ops (0 = default 4096)")
	opDelay := flag.Duration("op-delay", 0, "with -trace -data: pause after each journaled op (crash-harness pacing)")

	traceSample := flag.Float64("trace-sample", 0, "serve mode: enable end-to-end job tracing, head-sampling this fraction of traces (failed, preempted, retried and slow jobs are always retained)")
	traceDir := flag.String("trace-dir", "", "serve mode: persist retained traces in a wal store rooted here (implies tracing)")
	traceSeed := flag.Uint64("trace-seed", 1, "serve mode: trace-ID derivation seed")

	traceMode := flag.Bool("trace", false, "replay a seeded trace through the policy core and print the decision log")
	seed := flag.Int64("seed", 42, "with -trace: trace seed")
	jobs := flag.Int("jobs", 400, "with -trace: trace length")
	flag.Parse()

	pol, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fatal(err)
	}
	durable := sched.DurableOptions{
		Dir:           *dataDir,
		Fsync:         pol,
		FsyncInterval: *fsyncEvery,
		SnapshotEvery: *snapEvery,
		OpDelay:       *opDelay,
	}

	w, err := parseWeights(*weights)
	if err != nil {
		fatal(err)
	}
	adm := sched.Admission{
		MaxQueued: *maxQueued,
		Default:   sched.Quota{Rate: *rate, Burst: *burst},
		Tenants:   map[string]sched.Quota{},
	}
	for tenant, wt := range w {
		adm.Tenants[tenant] = sched.Quota{Rate: *rate, Burst: *burst, Weight: wt}
	}
	mkQueue := func() (sched.Queue, error) {
		switch *queue {
		case "fifo":
			return sched.NewFIFO(), nil
		case "priority":
			return sched.NewStrictPriority(), nil
		case "fair":
			return sched.NewWeightedFair(1, adm.Weights(), 1), nil
		default:
			return nil, fmt.Errorf("unknown -queue %q (want fifo, priority or fair)", *queue)
		}
	}

	switch {
	case *traceMode:
		q, err := mkQueue()
		if err != nil {
			fatal(err)
		}
		if err := runTrace(*seed, *jobs, q, adm, durable); err != nil {
			fatal(err)
		}
	default:
		q, err := mkQueue()
		if err != nil {
			fatal(err)
		}
		cfg := sched.Config{
			Executors:  *executors,
			Runtime:    rt.Config{Nodes: *nodes, ProcsPerNode: *procs, DCR: *dcr, IndexLaunches: true},
			Queue:      q,
			Admission:  adm,
			Preemption: *preempt,
			TickEvery:  *tick,
			Durable:    durable,
		}
		if *traceSample > 0 || *traceDir != "" {
			// Tracing needs a recorder, only as the way to the tracer's sink:
			// nothing here snapshots, so it keeps no rings. It also needs a
			// shared registry (trace_* must land in the one /metrics serves).
			reg := metrics.NewRegistry()
			tr, err := trace.New(trace.Config{
				HeadRate: *traceSample,
				Dir:      *traceDir,
				Registry: reg,
			})
			if err != nil {
				fatal(err)
			}
			cfg.Metrics = reg
			cfg.Profile = obs.NewSinkRecorder("idxserve")
			cfg.Trace = tr
			cfg.TraceSeed = *traceSeed
		}
		var mesh *wire.Mesh
		if *cluster != "" {
			mesh, err = joinCluster(*cluster, &cfg)
			if err != nil {
				fatal(err)
			}
		}
		if err := serve(*addr, cfg, mesh); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "idxserve:", err)
	os.Exit(1)
}

func parseWeights(s string) (map[string]int, error) {
	w := map[string]int{}
	if s == "" {
		return w, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -weights entry %q (want tenant=weight)", part)
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad weight %q for tenant %q", kv[1], kv[0])
		}
		w[kv[0]] = n
	}
	return w, nil
}

// joinCluster turns the service into mesh node 0 of a real multi-process
// cluster: it opens a TCP wire fabric, lists the idxnode workers as peers
// 1..N (the handshake Hello carries this table, so workers learn their
// sibling addresses from it), and makes the resulting mesh the executor
// runtime template's transport. The executor pool is forced to one — a
// mesh is a single node-0 resource and cannot be shared across runtimes
// (sched.New refuses to).
func joinCluster(workers string, cfg *sched.Config) (*wire.Mesh, error) {
	if cfg.Runtime.DCR {
		return nil, fmt.Errorf("-cluster excludes -dcr: only the centralized path ships slices")
	}
	peers := map[int]string{}
	for i, a := range strings.Split(workers, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("-cluster: empty worker address at position %d", i+1)
		}
		peers[i+1] = a
	}
	fab, err := wire.NewTCP(wire.TCPConfig{Self: 0, Listen: "127.0.0.1:0", Peers: peers, Epoch: 1})
	if err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		// The wire_* families must land in the registry /metrics serves.
		cfg.Metrics = metrics.NewRegistry()
	}
	mesh, err := wire.NewMesh(wire.MeshConfig{
		Self:    0,
		Nodes:   len(peers) + 1,
		Fabric:  fab,
		Metrics: cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	cfg.Executors = 1
	cfg.Runtime.Nodes = len(peers) + 1
	cfg.Runtime.Transport = mesh
	return mesh, nil
}

// serve runs the scheduler service until SIGINT/SIGTERM, then drains
// gracefully and shuts down. mesh is non-nil in cluster mode and closed on
// the way out.
func serve(addr string, cfg sched.Config, mesh *wire.Mesh) error {
	s, err := sched.New(cfg)
	if err != nil {
		return err
	}
	srv, err := sched.Serve(addr, s)
	if err != nil {
		return err
	}
	if cfg.Durable.Dir != "" {
		rep := s.Recovery()
		fmt.Fprintf(os.Stderr, "idxserve: journal %s (fsync=%s): recovered=%v replayed=%d requeued=%d resumed=%d decisions=%d\n",
			cfg.Durable.Dir, cfg.Durable.Fsync, rep.Recovered, rep.ReplayedOps,
			rep.RequeuedJobs, rep.ResumedJobs, rep.Decisions)
	}
	fmt.Printf("idxserve: %d executors (%d nodes x %d procs each), %s queue\n",
		cfg.Executors, cfg.Runtime.Nodes, cfg.Runtime.ProcsPerNode, s.Status().Queue)
	if mesh != nil {
		// The banner is parsed by the cluster smoke harness: keep the format.
		fmt.Printf("idxserve: cluster mode — node 0 of %d, %d workers over TCP\n",
			mesh.Nodes(), mesh.Nodes()-1)
	}
	fmt.Printf("idxserve: job API and metrics on http://%s (POST /jobs, /statusz, /metrics)\n", srv.Addr())
	if cfg.Trace != nil {
		fmt.Printf("idxserve: tracing on — GET /trace lists retained traces, GET /trace/{id} returns one\n")
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("idxserve: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "idxserve: drain:", err)
	}
	s.Shutdown()
	_ = srv.Close()
	_ = cfg.Trace.Close()
	if mesh != nil {
		_ = mesh.Close()
	}
	st := s.Status()
	var done int64
	for _, ts := range st.Tenants {
		done += ts.Completed
	}
	fmt.Printf("idxserve: stopped after %d decisions, %d jobs completed\n", st.Decisions, done)
	return nil
}

// runTrace prints the deterministic decision log for one seeded trace —
// byte-identical per (seed, flags), the property the CI seed matrix checks.
// With a journal directory the run is durable and resumable: a killed run
// re-invoked with the same flags continues from the journal and the final
// stdout is still byte-identical to an uninterrupted run's (recovery chatter
// goes to stderr).
func runTrace(seed int64, jobs int, q sched.Queue, adm sched.Admission, durable sched.DurableOptions) error {
	tr := sched.GenTrace(seed, sched.TraceOptions{
		Jobs: jobs, MaxPriority: 3, MaxInterArrival: 2, MaxCost: 4,
		MinService: 2, MaxService: 10,
	})
	cfg := sched.TraceConfig{Executors: 3, Queue: q, Admission: adm}
	var res sched.TraceResult
	if durable.Dir != "" {
		dres, err := sched.RunTraceDurable(tr, cfg, durable)
		if err != nil {
			return err
		}
		rep := dres.Report
		fmt.Fprintf(os.Stderr, "idxserve: journal %s: recovered=%v replayed=%d ops=%d\n",
			durable.Dir, rep.Recovered, rep.ReplayedOps, dres.Ops)
		res = dres.TraceResult
	} else {
		res = sched.RunTrace(tr, cfg)
	}
	fmt.Print(sched.RenderLog(res.Log))
	tenants := make([]string, 0, len(res.Completed))
	for t := range res.Completed {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	fmt.Printf("# seed %d: makespan %d ticks, %.2f jobs/ktick, p99 wait %d ticks\n",
		seed, res.Makespan, res.JobsPerKTick, res.P99Wait())
	for _, t := range tenants {
		fmt.Printf("# tenant %s: completed %d rejected %d expired %d served-cost %d\n",
			t, res.Completed[t], res.Rejected[t], res.Expired[t], res.ServedCost[t])
	}
	return nil
}
