package rt

import (
	"fmt"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/health"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/xport"
)

// This file wires the failure detector (internal/health) into the runtime.
// With a HeartbeatPolicy configured, liveness stops being an input: instead
// of an external KillNode call *telling* the runtime a node died, the
// runtime probes its nodes with heartbeat messages over the transport's
// broadcast tree and the detector turns missed heartbeats into state
// transitions. The injector's kill becomes just one way a node stops
// heartbeating (it is silenced, not declared dead), and a chaos partition
// that starves a node's probes is another — both are *detected*, at an
// issuance boundary, through the same machinery.
//
// Determinism: heartbeat rounds are driven by the issuance counter, not a
// timer. Every HeartbeatPolicy.Every issued point tasks, the issuing
// goroutine runs one detector tick under issueMu — probing every node
// synchronously through the transport endpoint's Probe, whose outcome is a
// pure function of the chaos plan and the probe order. For a fixed seed, program and
// policy, the full suspect/rejoin transition log is therefore byte-for-byte
// identical across runs, which the chaos determinism suite enforces.
//
// Recovery: a suspect/dead node that answers a probe again is quarantined;
// after RejoinRounds consecutive answers it rejoins — the runtime bumps the
// resync epoch, announces it to the node (a resync message on the
// centralized path; each later launch re-ships slices to live nodes, so
// the rejoined node's state refreshes naturally), readmits the node to the
// mapper's node set, and re-parents the broadcast tree back toward its
// denser original shape via the endpoint's MarkAlive.

// HeartbeatPolicy enables and tunes the self-healing failure detector.
type HeartbeatPolicy struct {
	// Every is the heartbeat period in issued point tasks: one detector
	// round runs each time the runtime-wide issuance counter crosses a
	// multiple of Every. 0 disables detection.
	Every int64
	// ProbeAttempts bounds per-hop transmissions of one heartbeat probe
	// before the probe is declared failed; 0 defaults to 3.
	ProbeAttempts int
	// SuspectPhi / DeadPhi / Window / RejoinRounds tune the accrual
	// detector; zeros take the internal/health defaults.
	SuspectPhi   float64
	DeadPhi      float64
	Window       int
	RejoinRounds int
}

// Enabled reports whether the policy turns detection on.
func (hp HeartbeatPolicy) Enabled() bool { return hp.Every > 0 }

func (hp HeartbeatPolicy) probeAttempts() int {
	if hp.ProbeAttempts <= 0 {
		return 3
	}
	return hp.ProbeAttempts
}

// healthManager is the runtime's detector state, guarded by issueMu.
type healthManager struct {
	det *health.Detector
	// silenced marks nodes that stopped heartbeating without the detector
	// knowing yet — the self-healing replacement for an immediate kill.
	silenced []bool
	// epoch is the resync epoch, bumped on every rejoin.
	epoch int64
}

func newHealthManager(cfg Config) *healthManager {
	if !cfg.Heartbeat.Enabled() {
		return nil
	}
	return &healthManager{
		det: health.New(health.Options{
			Nodes:        cfg.Nodes,
			SuspectPhi:   cfg.Heartbeat.SuspectPhi,
			DeadPhi:      cfg.Heartbeat.DeadPhi,
			Window:       cfg.Heartbeat.Window,
			RejoinRounds: cfg.Heartbeat.RejoinRounds,
		}),
		silenced: make([]bool, cfg.Nodes),
	}
}

// healthTick runs one heartbeat round and applies the resulting
// transitions. Caller holds issueMu. Shutdown stops the rounds so a
// Shutdown racing an in-flight rejoin never probes a closed runtime.
func (r *Runtime) healthTick() {
	hm := r.hm
	select {
	case <-r.stop:
		return
	default:
	}
	attempts := r.cfg.Heartbeat.probeAttempts()
	trs := hm.det.Tick(func(node int) bool {
		if hm.silenced[node] {
			// A silenced node's responder is down: the probe route may be
			// fine, the answer never comes. The transport never sees the
			// probe, so count it here on the same shared-registry counters
			// the endpoint's Probe increments for transported probes.
			r.mx.HealthProbes.Inc()
			r.mx.HealthProbeFails.Inc()
			return false
		}
		return r.xp.Probe(node, attempts)
	})
	for _, tr := range trs {
		r.applyTransition(tr)
	}
}

// applyTransition maps one detector transition onto runtime state. Caller
// holds issueMu.
func (r *Runtime) applyTransition(tr health.Transition) {
	switch tr.To {
	case health.Suspect:
		// Entering suspicion (from alive or from a failed quarantine):
		// stop assigning work — subsequently issued points re-map exactly
		// as the kill path's do — and route broadcasts around the node.
		r.mx.HealthSuspects.Inc()
		if !r.dead[tr.Node] {
			r.dead[tr.Node] = true
			r.xp.MarkDead(tr.Node)
		}
	case health.Dead:
		r.mx.HealthDeaths.Inc()
	case health.Quarantined:
		// The node answers again but is not yet trusted: it stays out of
		// the mapper's node set until RejoinRounds consecutive heartbeats.
	case health.Alive:
		// Rejoin: resync, readmit, re-parent.
		r.hm.epoch++
		r.mx.HealthRejoins.Inc()
		r.dead[tr.Node] = false
		r.xp.MarkAlive(tr.Node)
		if !r.cfg.DCR {
			// Announce the new epoch through the transport; the next
			// launch's slice broadcast re-ships the node's slices over the
			// re-parented (denser) tree.
			r.xp.Broadcast("resync", []xport.Item{{Dst: tr.Node, Payload: encodeResyncPayload(r.hm.epoch)}})
		}
	}
	if prof := r.cfg.Profile; prof != nil {
		label := tr.To.String()
		if tr.To == health.Alive {
			label = "rejoin"
		}
		prof.Mark(tr.Node, obs.StageHealth, label, "health", domain.Point{}, prof.Now())
	}
}

// silenceNodeLocked is the detector-mode kill: the node stops answering
// heartbeats but nothing is declared dead until the detector says so.
// Caller holds issueMu.
func (r *Runtime) silenceNodeLocked(node int) bool {
	if node <= 0 || node >= r.cfg.Nodes || r.hm.silenced[node] {
		// Node 0 is the observer: silencing it would be undetectable.
		return false
	}
	r.hm.silenced[node] = true
	r.mx.NodeFailures.Inc()
	if prof := r.cfg.Profile; prof != nil {
		prof.Mark(node, obs.StageFault, "node-kill", "", domain.Point{}, prof.Now())
	}
	return true
}

// reviveNodeLocked restores a killed node. With the detector enabled it
// resumes the node's heartbeats — quarantine and rejoin follow through the
// normal detection path. Without a detector it readmits the node directly.
// Caller holds issueMu.
func (r *Runtime) reviveNodeLocked(node int) bool {
	if node < 0 || node >= r.cfg.Nodes {
		return false
	}
	if r.hm != nil {
		if !r.hm.silenced[node] {
			return false
		}
		r.hm.silenced[node] = false
		return true
	}
	if !r.dead[node] {
		return false
	}
	r.dead[node] = false
	if r.xp != nil {
		r.xp.MarkAlive(node)
	}
	return true
}

// ReviveNode restores a previously killed node at the next issuance
// boundary. With a HeartbeatPolicy configured the node merely resumes
// heartbeating — the detector quarantines and readmits it over the
// following rounds; without one the node rejoins the mapper's node set
// immediately. Returns false if the node is out of range or was not down.
func (r *Runtime) ReviveNode(node int) bool {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	return r.reviveNodeLocked(node)
}

// HealthLog returns the detector's transition history; nil when no
// HeartbeatPolicy is configured. The rendered form (health.RenderLog) is
// byte-identical across runs for a fixed seed, program and policy.
func (r *Runtime) HealthLog() []health.Transition {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	if r.hm == nil {
		return nil
	}
	return r.hm.det.Log()
}

// HealthCounts aggregates the current node-health table. Without a
// detector it is derived from the kill-path liveness flags.
func (r *Runtime) HealthCounts() health.Counts {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	return r.healthCountsLocked()
}

func (r *Runtime) healthCountsLocked() health.Counts {
	if r.hm != nil {
		return r.hm.det.Counts()
	}
	var c health.Counts
	for _, dead := range r.dead {
		if dead {
			c.Dead++
		} else {
			c.Alive++
		}
	}
	return c
}

// livenessSummary renders the liveness snapshot fence errors embed.
func (r *Runtime) livenessSummary() string {
	return fmt.Sprintf("liveness: %s", r.HealthCounts())
}
