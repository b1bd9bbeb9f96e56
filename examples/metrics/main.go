// Metrics: attach a live metrics registry to a real runtime run, serve it
// over the embedded HTTP listener, and scrape the three exposition
// endpoints while the stencil workload runs — /metrics (Prometheus text),
// /metrics.json (what `idxprof watch` polls) and /statusz (live
// introspection: node liveness, broadcast-tree shape, in-flight work). Then
// read the stage-latency histograms back out of the registry and print a
// terminal rendering.
//
//	go run ./examples/metrics
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"

	"indexlaunch/internal/apps/stencil"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/rt"
)

func main() {
	params := stencil.Params{N: 256, TilesX: 4, TilesY: 4}
	const iters = 10

	s, err := stencil.Build(params)
	if err != nil {
		log.Fatal(err)
	}

	// The registry is the only wiring: the runtime records counters and
	// stage latencies into it, the HTTP listener serves it.
	reg := metrics.NewRegistry()
	runtime := rt.MustNew(rt.Config{
		Nodes: 4, ProcsPerNode: 2,
		DCR: true, IndexLaunches: true, VerifyLaunches: true,
		Metrics: reg,
	})
	srv, err := metrics.Serve("127.0.0.1:0", reg, func() any { return runtime.Status() })
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("serving %s/metrics, /metrics.json and /statusz\n\n", srv.URL())

	app := stencil.NewApp(s, runtime)
	for i := 0; i < iters; i++ {
		if err := runtime.BeginTrace(1); err != nil {
			log.Fatal(err)
		}
		if err := app.Step(); err != nil {
			log.Fatal(err)
		}
		if err := runtime.EndTrace(1); err != nil {
			log.Fatal(err)
		}
	}
	runtime.Fence()

	// Scrape the live endpoints the way Prometheus / idxprof watch would.
	prom := scrape(srv.URL() + "/metrics")
	fmt.Println("=== /metrics (Prometheus text, excerpt) ===")
	for _, line := range strings.Split(prom, "\n") {
		if strings.HasPrefix(line, "idx_tasks_executed_total") ||
			strings.HasPrefix(line, "idx_trace_replays_total") ||
			strings.HasPrefix(line, "# TYPE idx_stage_latency_ns") ||
			strings.HasPrefix(line, "idx_stage_latency_ns_count") {
			fmt.Println(line)
		}
	}

	status := scrape(srv.URL() + "/statusz")
	fmt.Println("\n=== /statusz ===")
	fmt.Println(status)

	// The same registry is readable in process: print the stage-latency
	// histogram per pipeline stage.
	fmt.Println("=== stage-latency histogram (in-process read) ===")
	fmt.Printf("%-12s %8s %12s %12s %12s\n", "stage", "count", "p50", "p95", "p99")
	snap := reg.Gather()
	for _, f := range snap.Families {
		if f.Name != "idx_stage_latency_ns" {
			continue
		}
		for _, ss := range f.Series {
			fmt.Printf("%-12s %8d %10dns %10dns %10dns\n",
				ss.Labels[0].Value, ss.Count,
				metrics.BucketQuantile(ss.Buckets, ss.Count, 0.50),
				metrics.BucketQuantile(ss.Buckets, ss.Count, 0.95),
				metrics.BucketQuantile(ss.Buckets, ss.Count, 0.99))
		}
	}

	st := runtime.Stats()
	fmt.Printf("\nruntime: %d tasks, %d replays; watch live with: idxprof watch %s\n",
		st.TasksExecuted, st.TraceReplays, srv.Addr())
}

func scrape(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return strings.TrimRight(string(body), "\n")
}
