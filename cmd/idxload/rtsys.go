package main

import (
	"fmt"
	"math"

	"indexlaunch/internal/apps/circuit"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/rt"
)

// launchesPerStep is the number of index launches one circuit timestep
// issues (calc_new_currents, distribute_charge, update_voltages).
const launchesPerStep = 3

// rtSystem is the in-process runtime running the paper's circuit: no sched,
// no wire, no wal — the five-stage pipeline with real region requirements.
type rtSystem struct {
	w      *workload
	params circuit.Params
	c      *circuit.Circuit
	r      *rt.Runtime
	app    *circuit.App
	reg    *metrics.Registry // nil in the untraced pass: no clock reads
	steps  int               // timesteps issued since set-up
	blocks uint64
}

// startRT builds the circuit graph from seed and a fresh runtime. withMetrics
// attaches a registry (the traced pass): stage latencies and fence waits are
// then timed, which the untraced pass must not pay for.
func startRT(w *workload, seed int64, withMetrics bool) (*rtSystem, error) {
	d := w.defs
	s := &rtSystem{w: w, params: circuit.Params{
		Pieces: d.Circuit.Pieces, NodesPerPiece: d.Circuit.NodesPerPiece,
		WiresPerPiece: d.Circuit.WiresPerPiece, CrossFraction: d.Circuit.CrossFraction, Seed: seed,
	}}
	var err error
	if s.c, err = circuit.Build(s.params); err != nil {
		return nil, err
	}
	cfg := rt.Config{
		Nodes: d.Machine.Nodes, ProcsPerNode: d.Machine.ProcsPerNode,
		DCR: w.DCR, IndexLaunches: true, VerifyLaunches: true,
	}
	if withMetrics {
		s.reg = metrics.NewRegistry()
		cfg.Metrics = s.reg
	}
	if s.r, err = rt.New(cfg); err != nil {
		return nil, err
	}
	s.app = circuit.NewApp(s.c, s.r)
	return s, nil
}

// op issues one block: FenceEvery timesteps back to back, then a fence.
func (s *rtSystem) op(c int, tr tracer) (int64, error) {
	s.blocks++
	root := obs.NewTraceRef(s.blocks)
	blockStart := tr.now()
	defer func() { tr.span(root, c, spanBlock, blockStart, tr.now()) }()
	for i := 0; i < s.w.FenceEvery; i++ {
		start := tr.now()
		err := s.app.Step()
		tr.span(root.Child(uint64(i)), c, spanStep, start, tr.now())
		if err != nil {
			return 0, err
		}
		s.steps++
	}
	start := tr.now()
	err := s.r.FenceErr()
	tr.span(root.Child(uint64(s.w.FenceEvery)), c, spanFence, start, tr.now())
	return int64(s.w.FenceEvery * launchesPerStep * s.params.Pieces), err
}

// scrape reads the attached registry, or without one the always-maintained
// pipeline counters through Runtime.Stats.
func (s *rtSystem) scrape() (samples, error) {
	if s.reg != nil {
		return scrapeRegistry(s.reg)
	}
	st := s.r.Stats()
	return samples{
		"idx_launch_calls_total":   float64(st.LaunchCalls),
		"idx_tasks_executed_total": float64(st.TasksExecuted),
		"idx_tasks_failed_total":   float64(st.TasksFailed),
		"idx_fallbacks_total":      float64(st.Fallbacks),
	}, nil
}

// voltageTolerance is how far the runtime's total voltage may sit from the
// sequential reference's (reductions reorder, nothing else may differ).
const voltageTolerance = 1e-9

// check compares against the sequential reference run for the same number of
// timesteps on an identical graph, and the task count against what was issued.
func (s *rtSystem) check() error {
	st := s.r.Stats()
	want := int64(s.steps * launchesPerStep * s.params.Pieces)
	if st.TasksExecuted != want || st.TasksFailed != 0 || st.Fallbacks != 0 {
		return fmt.Errorf("runtime executed %d tasks (%d failed, %d launches fell back), harness issued %d",
			st.TasksExecuted, st.TasksFailed, st.Fallbacks, want)
	}
	ref, err := circuit.Build(s.params)
	if err != nil {
		return err
	}
	circuit.Reference(ref, s.steps)
	got, exp := s.c.TotalVoltage(), ref.TotalVoltage()
	if d := math.Abs(got - exp); !(d <= voltageTolerance) {
		return fmt.Errorf("total voltage %.12g after %d timesteps, reference %.12g (off by %.3g)", got, s.steps, exp, d)
	}
	return nil
}

func (s *rtSystem) postMortem() string { return "" }

func (s *rtSystem) close() { s.r.Shutdown() }
