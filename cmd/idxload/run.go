package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"indexlaunch/internal/obs"
)

// harness is one invocation: where things live and how long windows are.
type harness struct {
	root    string // checkout root
	outDir  string // benchmark/out: traces and reports (ignored by git)
	scratch string // per-invocation scratch under outDir, removed at exit
	binDir  string // built idxserve / idxnode
	defs    *definitions
	seed    int64
	window  time.Duration // untraced measured window
	traced  time.Duration // each of the traced pass's two timed windows
	buildS  float64
	built   bool
	nextDir int
}

// tracedShare is the length of the traced pass's timed windows relative to
// the untraced window (4 s beside 10 s); two of them fit in one run.
const tracedShare = 0.4

// spanRing is the harness recorder's per-client capacity: the fixed-count
// phase of every workload fits with room to spare, so its trace file and
// self times are complete.
const spanRing = 1 << 16

func newHarness(root string, seed int64, seconds float64) (*harness, error) {
	defs, err := loadDefinitions(root)
	if err != nil {
		return nil, err
	}
	h := &harness{
		root: root, outDir: filepath.Join(root, "benchmark", "out"),
		binDir: filepath.Join(root, ".bench_build", "idxload-bin"),
		defs:   defs, seed: seed,
		window: time.Duration(seconds * float64(time.Second)),
	}
	h.traced = time.Duration(float64(h.window) * tracedShare)
	h.scratch = filepath.Join(h.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(h.scratch, 0o755); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *harness) cleanup() { _ = os.RemoveAll(h.scratch) }

// ensureBuilt compiles the daemons once per invocation; build_s is reported
// beside setup_s, never inside it.
func (h *harness) ensureBuilt() error {
	if h.built {
		return nil
	}
	d, err := buildBinaries(h.root, h.binDir)
	if err != nil {
		return err
	}
	h.built, h.buildS = true, d.Seconds()
	return nil
}

// start sets one instance of w up without warming it; twin selects the
// workload's twin: its idxserve flags, and no journal.
func (h *harness) start(w *workload, twin, traced bool) (system, error) {
	if w.Kind == "rt" {
		return startRT(w, h.seed, traced)
	}
	if err := h.ensureBuilt(); err != nil {
		return nil, err
	}
	args, durable := w.ServeArgs, w.Durable
	if twin {
		args, durable = w.Twin.ServeArgs, false
	}
	if durable && w.Workers == 0 && fsType(h.scratch) == "tmpfs" {
		return nil, fmt.Errorf("%s journals to %s, which is tmpfs: fsync is free there and the workload would measure nothing", w.Name, h.scratch)
	}
	h.nextDir++
	return startHTTP(w, args, durable, h.binDir, filepath.Join(h.scratch, fmt.Sprintf("sys-%d", h.nextDir)), h.seed)
}

// setUp starts an instance and runs the fixed warm-up, which lets lazy
// set-up finish (connections, executor runtimes, first segments) before
// anything is timed. A warm-up op that fails fails the set-up.
func (h *harness) setUp(w *workload, twin, traced bool) (system, error) {
	sys, err := h.start(w, twin, traced)
	if err != nil {
		return nil, err
	}
	if res := drive(sys, w, tracer{}, w.WarmupOps, 0); res.failed > 0 {
		pm := sys.postMortem()
		sys.close()
		return nil, fmt.Errorf("%s: %d of %d warm-up ops failed\n%s", w.Name, res.failed, res.attempted, pm)
	}
	return sys, nil
}

// setUpRepeated sets w up w.Setups times — spawn (or rt.New) to the end of
// warm-up, binary build excluded — and keeps the last instance. setup_s is
// the median, so one slow fork does not set it.
func (h *harness) setUpRepeated(w *workload, traced bool) (system, []float64, error) {
	if w.Kind == "http" {
		if err := h.ensureBuilt(); err != nil {
			return nil, nil, err
		}
	}
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		sys, err := h.setUp(w, false, traced)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == w.Setups-1 {
			return sys, times, nil
		}
		sys.close()
	}
}

// runPass runs one pass of one workload and verifies its outputs.
func (h *harness) runPass(w *workload, traced bool) *passResult {
	p := &passResult{Workload: w.Name, Traced: traced, Correct: true, Metrics: map[string]metric{}}
	sys, setups, err := h.setUpRepeated(w, traced)
	if err != nil {
		p.fail("set-up: %v", err)
		p.Attempted, p.Failed = 1, 1
		return p
	}
	p.Metrics["setup_s"] = number(median(setups), "s", "lower").spread(setups)

	var phases []phaseResult
	if traced {
		phases = h.tracedPass(w, sys, p)
	} else {
		res := drive(sys, w, tracer{}, 0, h.window)
		phases = []phaseResult{res}
		endToEnd(p, res, h.window)
	}
	for _, res := range phases {
		p.Attempted += res.attempted
		p.Failed += res.failed
		if res.dead {
			p.fail("system under test died; remaining scheduled ops counted as failed\n%s", sys.postMortem())
		}
	}
	if p.Failed > 0 {
		p.fail("%d of %d ops failed", p.Failed, p.Attempted)
	}
	if p.Correct {
		if err := sys.check(); err != nil {
			p.fail("output check: %v", err)
		}
	}
	sys.close()
	if hs, ok := sys.(*httpSystem); ok && p.Correct {
		if _, err := hs.workerPoints(); err != nil {
			p.fail("output check: %v", err)
		}
	}
	return p
}

// endToEnd fills in what a user of the system sees, from an untraced window.
func endToEnd(p *passResult, res phaseResult, window time.Duration) {
	pps, p50s := res.sliced(window)
	p.Metrics["points_per_s"] = number(median(pps), "1/s", "higher").spread(pps)
	lats := res.latenciesMS()
	if len(lats) == 0 {
		return
	}
	m := number(percentile(lats, 50), "ms", "lower").spread(p50s)
	m.N = len(lats)
	p.Metrics["job_p50_ms"] = m
	tail(p, lats)
}

// tail reports the highest percentile with at least ten samples beyond it.
func tail(p *passResult, sortedMS []float64) {
	pct, v, ok := tailPercentile(sortedMS)
	if !ok {
		p.Metrics["job_tail_ms"] = null("ms", fmt.Sprintf("only %d samples", len(sortedMS)))
		return
	}
	m := number(v, "ms", "lower")
	m.N = len(sortedMS)
	m.Note = fmt.Sprintf("p%g", pct)
	p.Metrics["job_tail_ms"] = m
}

// tracedPass is the per-layer pass: a fixed number of ops with harness spans
// on and the layer counters scraped on either side (so that counts repeat
// exactly for a seed), then an untraced and a traced timed window whose
// difference is the harness's own tracing overhead, then the layer probes.
func (h *harness) tracedPass(w *workload, sys system, p *passResult) []phaseResult {
	rec := obs.NewRecorder("idxload", w.Clients, spanRing)
	tr := tracer{rec: rec, workload: w.Name}

	before, err := sys.scrape()
	if err != nil {
		p.fail("scrape: %v", err)
		return nil
	}
	counted := drive(sys, w, tr, w.CountOps, 0)
	after, err := sys.scrape()
	if err != nil {
		p.fail("scrape: %v", err)
		return []phaseResult{counted}
	}
	prof := rec.Snapshot()
	p.Spans = selfTimes(prof.Events)
	tracePath := filepath.Join(h.outDir, "trace-"+w.Name+".json")
	if err := prof.WriteFile(tracePath); err != nil {
		p.fail("write %s: %v", tracePath, err)
	}
	layerMetrics(p, w, before.delta(after), counted, prof.Events)

	if w.Twin != nil {
		h.twinDifference(w, counted, p)
	}

	off := drive(sys, w, tracer{}, 0, h.traced)
	on := drive(sys, w, tr, 0, h.traced)
	offPPS, _ := off.sliced(h.traced)
	onPPS, _ := on.sliced(h.traced)
	if base := median(offPPS); base > 0 {
		p.Metrics["harness_trace_overhead_pct"] = number((base-median(onPPS))/base*100, "%", "lower")
	}
	tail(p, off.latenciesMS())

	probes, err := runProbes(h.scratch)
	if err != nil {
		p.fail("%v", err)
	}
	for name, m := range probes {
		p.Metrics[name] = m
	}
	return []phaseResult{counted, off, on}
}

// twinDifference runs the fixed-count phase again on the workload's twin —
// same jobs, same seed, one layer switched off — and reports that layer's
// cost by difference: trace.overhead_pct relative to the twin (how much
// longer a job takes with tracing on), wal.time_share_pct relative to the
// workload itself (the share of a job's time the journal accounts for).
func (h *harness) twinDifference(w *workload, with phaseResult, p *passResult) {
	twin, err := h.setUp(w, true, true)
	if err != nil {
		p.fail("twin: %v", err)
		return
	}
	defer twin.close()
	without := drive(twin, w, tracer{rec: obs.NewRecorder("twin", w.Clients, spanRing), workload: w.Name}, w.CountOps, 0)
	if without.failed > 0 {
		p.fail("twin: %d of %d ops failed\n%s", without.failed, without.attempted, twin.postMortem())
		return
	}
	diff := with.elapsed.Seconds() - without.elapsed.Seconds()
	base := without.elapsed.Seconds()
	if w.Twin.Reports == "wal.time_share_pct" {
		base = with.elapsed.Seconds()
	}
	m := number(diff/base*100, "%", "lower")
	m.Note = "by difference to the twin"
	p.Metrics[w.Twin.Reports] = m
}

// layerMetrics derives the per-layer numbers of the fixed-count phase from
// the counter deltas d, the phase itself and the harness spans.
func layerMetrics(p *passResult, w *workload, d samples, counted phaseResult, events []obs.Event) {
	ops := float64(w.CountOps)
	var points, opNS float64
	for _, s := range counted.samples {
		points += float64(s.points)
		opNS += float64(s.lat)
	}
	launches := d.sum("idx_launch_calls_total")
	ratio := func(name, unit string, num, den float64) {
		if den == 0 {
			p.Metrics[name] = null(unit, "nothing to divide by")
			return
		}
		p.Metrics[name] = number(num/den, unit, "lower")
	}
	// histMean is a histogram family's mean over the phase; a family that
	// took no observation had its clock reads off (or its layer absent).
	histMean := func(name, unit, fam, labels string, scale float64) {
		n := d[fam+"_count"+labels]
		if n == 0 {
			p.Metrics[name] = null(unit, fam+" took no observations in this configuration")
			return
		}
		p.Metrics[name] = number(d[fam+"_sum"+labels]/n/scale, unit, "lower")
	}
	spanDurs := func(name string) []float64 {
		var out []float64
		for _, ev := range events {
			if ev.Task == name {
				out = append(out, float64(ev.Dur))
			}
		}
		sort.Float64s(out)
		return out
	}

	if w.Kind == "http" {
		p.Metrics["sched.submit_ms"] = number(percentile(spanDurs(spanSubmit), 50)/1e6, "ms", "lower")
		ratio("sched.polls_per_job", "count", float64(len(spanDurs(spanPoll))), ops)
		p.Metrics["rt.issue_call_us"] = null("us", "the harness does not call ExecuteIndex on HTTP workloads")
	} else {
		p.Metrics["sched.submit_ms"] = null("ms", "no scheduler on rt workloads")
		p.Metrics["sched.polls_per_job"] = null("count", "no scheduler on rt workloads")
		steps := spanDurs(spanStep)
		var total float64
		for _, ns := range steps {
			total += ns
		}
		ratio("rt.issue_call_us", "us", total/1e3, float64(len(steps)*launchesPerStep))
	}
	histMean("sched.queue_wait_us_per_job", "us", "sched_queue_wait_ns", "", 1e3)

	ratio("wal.fsyncs_per_job", "count", d.sum("wal_fsyncs_total"), ops)
	histMean("wal.append_us", "us", "wal_append_ns", "", 1e3)
	// The journal's share of job time: timed directly where wal_append_ns is
	// observed, zero where nothing was journaled, and otherwise left to the
	// twin (twinDifference), since its clock reads are off.
	switch {
	case d["wal_append_ns_count"] > 0:
		ratio("wal.time_share_pct", "%", 100*d["wal_append_ns_sum"], opNS)
	case d.sum("wal_appends_total") == 0:
		p.Metrics["wal.time_share_pct"] = number(0, "%", "lower")
	default:
		p.Metrics["wal.time_share_pct"] = null("%", "wal_append_ns took no observations in this configuration")
	}
	if w.Twin == nil || w.Twin.Reports != "trace.overhead_pct" {
		p.Metrics["trace.overhead_pct"] = null("%", "only a workload with an untraced twin measures it")
	}

	// Frames and bytes are everything on the wire (data, acks, exec, result,
	// ping, retransmissions), so they depend on timing; first transmissions
	// and exec requests are the protocol's own counts and repeat exactly.
	ratio("wire.sends_per_launch", "count", d.sum("wire_sends_total"), launches)
	ratio("wire.execs_per_point", "count", d.sum("wire_execs_total"), points)
	ratio("wire.frames_per_point", "count", d.sum("wire_peer_msgs_sent_total"), points)
	ratio("wire.bytes_per_point", "count", d.sum("wire_peer_bytes_sent_total"), points)
	p.Metrics["wire.retransmits"] = number(d.sum("wire_retransmits_total"), "count", "lower")

	for _, stage := range []string{"issue", "logical", "distribute", "physical", "execute"} {
		histMean("rt.stage_us."+stage, "us", "idx_stage_latency_ns", `{stage="`+stage+`"}`, 1e3)
	}
	ratio("rt.fence_wait_share", "%", 100*d["idx_fence_wait_ns_sum"], opNS)

	ratio("xport.sends_per_launch", "count", d.sum("xport_sends_total"), launches)
	p.Metrics["xport.retransmits"] = number(d.sum("xport_retransmits_total"), "count", "lower")
}
