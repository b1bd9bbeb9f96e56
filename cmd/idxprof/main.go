// Command idxprof analyzes the observability artifacts of idxbench, idxsim
// and idxlang.
//
// Profile mode (the default) reads a profile dumped by a -profile flag (or
// by any program using internal/obs): it prints per-node ASCII timelines,
// per-stage and per-launch aggregation tables, and the critical path
// through the recorded dependence graph. The input is Chrome trace_event
// JSON, so the same file also loads directly in chrome://tracing or
// Perfetto.
//
//	idxprof p.json
//	idxprof -width 120 -steps 20 p.json
//
// Diff mode compares two BENCH_<fig>.json snapshots written by `idxbench
// -json` and flags values that moved in their worse direction beyond a
// threshold — the CI bench-regression gate. The exit status is 1 when a
// regression is found unless -warn is set.
//
//	idxprof diff old/BENCH_fig5.json new/BENCH_fig5.json
//	idxprof diff -threshold 0.10 -warn old.json new.json
//
// Watch mode polls a live /metrics.json endpoint (served by a -metrics
// flag) and prints what changed between polls — a terminal top(1) for the
// runtime pipeline.
//
//	idxprof watch 127.0.0.1:8080
//	idxprof watch -interval 1s -count 10 http://127.0.0.1:8080
//
// Trace mode renders a retained end-to-end job trace (the GET /trace/{id}
// payload of idxserve's tracing layer) as an indented cross-layer timeline:
// one line per span, nested by parent, sched admission through runtime
// stages to transport hops.
//
//	idxprof trace 127.0.0.1:8080 3        # fetch and render job 3's trace
//	idxprof trace http://host:8080/trace/1a2b3c
//	idxprof trace trace.json              # render a saved trace payload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "diff":
			runDiff(os.Args[2:])
			return
		case "watch":
			runWatch(os.Args[2:])
			return
		case "trace":
			runTraceRender(os.Args[2:])
			return
		}
	}
	width := flag.Int("width", 80, "timeline width in columns")
	steps := flag.Int("steps", 12, "critical-path chain steps to print")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: idxprof [-width n] [-steps n] profile.json")
		fmt.Fprintln(os.Stderr, "       idxprof diff [-threshold f] [-warn] [-all] old.json new.json")
		fmt.Fprintln(os.Stderr, "       idxprof watch [-interval d] [-count n] host:port")
		fmt.Fprintln(os.Stderr, "       idxprof trace trace.json | <url> | host:port <id>")
		os.Exit(2)
	}
	p, err := obs.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "idxprof: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(obs.RenderSummary(p))
	fmt.Println()
	fmt.Print(obs.RenderTimeline(p, *width))
	fmt.Println()
	fmt.Print(obs.CriticalPath(p).Render(p.WallNS, *steps))
}

// runTraceRender renders a retained job trace as a cross-layer timeline.
// The source is a saved JSON payload, a full /trace/{id} URL, or a
// host:port plus trace/job ID pair.
func runTraceRender(args []string) {
	fs := flag.NewFlagSet("idxprof trace", flag.ExitOnError)
	_ = fs.Parse(args)
	var data []byte
	var err error
	switch fs.NArg() {
	case 1:
		src := fs.Arg(0)
		if strings.Contains(src, "://") {
			data, err = fetchBytes(src)
		} else {
			data, err = os.ReadFile(src)
		}
	case 2:
		host := fs.Arg(0)
		if !strings.Contains(host, "://") {
			host = "http://" + host
		}
		data, err = fetchBytes(strings.TrimRight(host, "/") + "/trace/" + fs.Arg(1))
	default:
		fmt.Fprintln(os.Stderr, "usage: idxprof trace trace.json | idxprof trace <url> | idxprof trace host:port <id>")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "idxprof: %v\n", err)
		os.Exit(1)
	}
	var tr trace.Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		fmt.Fprintf(os.Stderr, "idxprof: parse trace: %v\n", err)
		os.Exit(1)
	}
	if err := tr.Render(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "idxprof: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("stages: %s\n", strings.Join(tr.Stages(), " "))
}

func fetchBytes(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// runDiff compares two bench snapshots and gates on regressions.
func runDiff(args []string) {
	fs := flag.NewFlagSet("idxprof diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.05, "relative change beyond which a value counts as moved")
	warn := fs.Bool("warn", false, "report regressions but exit 0 (non-blocking gate)")
	all := fs.Bool("all", false, "also print values that did not move beyond the threshold")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: idxprof diff [-threshold f] [-warn] [-all] old.json new.json")
		os.Exit(2)
	}
	old, err := metrics.ReadBenchFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "idxprof: %v\n", err)
		os.Exit(1)
	}
	cur, err := metrics.ReadBenchFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "idxprof: %v\n", err)
		os.Exit(1)
	}
	deltas := metrics.BenchDiff(old, cur, *threshold)
	fmt.Print(metrics.RenderBenchDiff(old, cur, deltas, !*all))
	if n := metrics.Regressions(deltas); n > 0 {
		fmt.Printf("%d regression(s) beyond %.1f%%\n", n, *threshold*100)
		if !*warn {
			os.Exit(1)
		}
	}
}

// runWatch polls a live /metrics.json endpoint and prints per-interval
// deltas.
func runWatch(args []string) {
	fs := flag.NewFlagSet("idxprof watch", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	count := fs.Int("count", 0, "number of polls (0 = until interrupted)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: idxprof watch [-interval d] [-count n] host:port")
		os.Exit(2)
	}
	url := fs.Arg(0)
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, "/metrics.json") {
		url = strings.TrimRight(url, "/") + "/metrics.json"
	}
	var prev metrics.Snapshot
	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		snap, err := fetchSnapshot(url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "idxprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("-- %s\n", time.Now().Format(time.TimeOnly))
		fmt.Print(metrics.RenderDelta(prev, snap))
		prev = snap
	}
}

func fetchSnapshot(url string) (metrics.Snapshot, error) {
	resp, err := http.Get(url)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return metrics.Snapshot{}, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return metrics.ReadJSONSnapshot(resp.Body)
}
