// Package health is the runtime's failure detector: a deterministic,
// phi-accrual-style accrual detector over heartbeat probes that internal/rt
// drives through the message transport to detect, quarantine and readmit
// nodes with one state machine.
//
// Unlike wall-clock accrual detectors, the detector has no clock of its
// own: time is the heartbeat round number, and rounds advance only when the
// owner calls Tick — in internal/rt that happens at issuance boundaries
// under the issuance lock, so for a fixed seed and chaos plan the whole
// suspect/rejoin transition sequence is a pure function of the program, not
// of goroutine interleaving. The accrual part is the suspicion level: the
// number of rounds since a node's last successful heartbeat, scaled by the
// node's own recent inter-heartbeat gap history, so a node whose probes
// historically straggle (lossy links, long routes) accrues suspicion more
// slowly than one that has always answered promptly.
//
// The state machine:
//
//	        phi >= SuspectPhi          phi >= DeadPhi
//	Alive --------------------> Suspect --------------> Dead
//	  ^                            |  ^                   |
//	  |                 heartbeat  |  | probe fails       | heartbeat
//	  | RejoinRounds consecutive   v  |                   v
//	  +------------------------ Quarantined <-------------+
//	           heartbeats
//
// Suspect and Dead nodes keep being probed — a resumed heartbeat moves them
// to Quarantined, and RejoinRounds consecutive successes readmit them.
package health

import (
	"fmt"
	"strings"
)

// State is one node's position in the detection/recovery state machine.
type State uint8

const (
	// Alive nodes answer probes and hold work.
	Alive State = iota
	// Suspect nodes missed enough heartbeats that the runtime stops
	// assigning work to them; their in-flight tasks are re-mapped.
	Suspect
	// Dead nodes accrued suspicion past DeadPhi while suspect.
	Dead
	// Quarantined nodes resumed heartbeating after being suspect or dead;
	// they are resynced but receive no work until RejoinRounds consecutive
	// heartbeats readmit them.
	Quarantined
)

var stateNames = [...]string{"alive", "suspect", "dead", "quarantined"}

// String renders the state name used in logs and /statusz.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// Options tunes the detector. Zero fields take the defaults.
type Options struct {
	// Nodes is the total node count. Node 0 is the observer — the node the
	// probes originate from — and is never probed or suspected.
	Nodes int
	// SuspectPhi is the suspicion level at which an alive node becomes
	// suspect; 0 defaults to 2 (two mean inter-heartbeat gaps missed).
	SuspectPhi float64
	// DeadPhi is the suspicion level at which a suspect node is declared
	// dead; 0 defaults to 4.
	DeadPhi float64
	// Window bounds the per-node gap history the suspicion level is scaled
	// by; 0 defaults to 8.
	Window int
	// RejoinRounds is the number of consecutive successful heartbeats a
	// quarantined node needs to be readmitted; 0 defaults to 2.
	RejoinRounds int
}

const (
	defaultSuspectPhi   = 2
	defaultDeadPhi      = 4
	defaultWindow       = 8
	defaultRejoinRounds = 2
)

func (o Options) withDefaults() Options {
	if o.SuspectPhi <= 0 {
		o.SuspectPhi = defaultSuspectPhi
	}
	if o.DeadPhi <= 0 {
		o.DeadPhi = defaultDeadPhi
	}
	if o.DeadPhi < o.SuspectPhi {
		o.DeadPhi = o.SuspectPhi
	}
	if o.Window <= 0 {
		o.Window = defaultWindow
	}
	if o.RejoinRounds <= 0 {
		o.RejoinRounds = defaultRejoinRounds
	}
	return o
}

// Transition is one observed state change, stamped with the heartbeat round
// it happened in. The rendered form is intentionally canonical — the
// determinism suite compares rendered transition logs byte for byte.
type Transition struct {
	Round int64 `json:"round"`
	Node  int   `json:"node"`
	From  State `json:"from"`
	To    State `json:"to"`
}

// String renders the transition canonically: "r<round> n<node> from>to".
func (tr Transition) String() string {
	return fmt.Sprintf("r%d n%d %s>%s", tr.Round, tr.Node, tr.From, tr.To)
}

// RenderLog renders a transition sequence one line per transition — the
// byte-comparable form of a detector history.
func RenderLog(log []Transition) string {
	var b strings.Builder
	for _, tr := range log {
		b.WriteString(tr.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// NodeHealth is one node's row in the live health table (/statusz).
type NodeHealth struct {
	Node  int    `json:"node"`
	State string `json:"state"`
	// Phi is the current suspicion level; 0 for a node whose latest probe
	// succeeded.
	Phi float64 `json:"phi"`
	// LastOK is the round of the node's last successful heartbeat; -1 if it
	// has never answered.
	LastOK int64 `json:"last_ok"`
}

// Counts aggregates the health table for fence diagnostics.
type Counts struct {
	Alive       int `json:"alive"`
	Suspect     int `json:"suspect"`
	Dead        int `json:"dead"`
	Quarantined int `json:"quarantined"`
}

// String renders the counts the way fence errors embed them.
func (c Counts) String() string {
	s := fmt.Sprintf("%d alive, %d suspect, %d dead", c.Alive, c.Suspect, c.Dead)
	if c.Quarantined > 0 {
		s += fmt.Sprintf(", %d quarantined", c.Quarantined)
	}
	return s
}

// nodeState is one probed node's detector state.
type nodeState struct {
	state    State
	lastOK   int64   // round of last successful probe; -1 before the first
	gaps     []int64 // ring of recent inter-success gaps
	gapNext  int
	gapSum   int64
	okStreak int // consecutive successes while quarantined
}

// Detector runs the accrual state machine over heartbeat rounds. It is not
// safe for concurrent use; the owner serializes Tick (internal/rt calls it
// under the issuance lock).
type Detector struct {
	opt   Options
	round int64
	nodes []nodeState
	log   []Transition
}

// New returns a detector for opt.Nodes nodes, all initially alive.
func New(opt Options) *Detector {
	opt = opt.withDefaults()
	if opt.Nodes < 1 {
		opt.Nodes = 1
	}
	d := &Detector{opt: opt, nodes: make([]nodeState, opt.Nodes)}
	for i := range d.nodes {
		d.nodes[i].lastOK = -1
	}
	return d
}

// Options returns the detector's effective (defaulted) options.
func (d *Detector) Options() Options { return d.opt }

// Round returns the number of completed heartbeat rounds.
func (d *Detector) Round() int64 { return d.round }

// meanGap is the node's average inter-success gap, optimistically 1 (a
// heartbeat every round) until history accrues.
func (ns *nodeState) meanGap() float64 {
	if len(ns.gaps) == 0 {
		return 1
	}
	return float64(ns.gapSum) / float64(len(ns.gaps))
}

// phi is the node's suspicion level at round: rounds since the last
// successful heartbeat, in units of the node's mean inter-heartbeat gap. A
// node that has never answered counts from round 0.
func (ns *nodeState) phi(round int64) float64 {
	missed := round - ns.lastOK
	if ns.lastOK < 0 {
		missed = round
	}
	if missed <= 0 {
		return 0
	}
	return float64(missed) / ns.meanGap()
}

// noteOK records a successful probe at round, folding the gap since the
// previous success into the history window.
func (ns *nodeState) noteOK(round int64, window int) {
	gap := int64(1)
	if ns.lastOK >= 0 && round-ns.lastOK > 0 {
		gap = round - ns.lastOK
	}
	if len(ns.gaps) < window {
		ns.gaps = append(ns.gaps, gap)
		ns.gapSum += gap
	} else {
		ns.gapSum += gap - ns.gaps[ns.gapNext]
		ns.gaps[ns.gapNext] = gap
		ns.gapNext = (ns.gapNext + 1) % window
	}
	ns.lastOK = round
}

// Tick runs one heartbeat round: every node except the observer (node 0) is
// probed in node order, suspicion levels are updated, and the resulting
// state transitions are returned in the order they fired (and appended to
// the detector log). The probe function must be deterministic for the
// determinism guarantees to hold; the detector imposes no other contract on
// it.
func (d *Detector) Tick(probe func(node int) bool) []Transition {
	d.round++
	var out []Transition
	move := func(n int, to State) {
		tr := Transition{Round: d.round, Node: n, From: d.nodes[n].state, To: to}
		d.nodes[n].state = to
		d.log = append(d.log, tr)
		out = append(out, tr)
	}
	for n := 1; n < d.opt.Nodes; n++ {
		ns := &d.nodes[n]
		if probe(n) {
			ns.noteOK(d.round, d.opt.Window)
			switch ns.state {
			case Suspect, Dead:
				ns.okStreak = 1
				move(n, Quarantined)
			case Quarantined:
				ns.okStreak++
				if ns.okStreak >= d.opt.RejoinRounds {
					ns.okStreak = 0
					move(n, Alive)
				}
			}
			continue
		}
		phi := ns.phi(d.round)
		switch ns.state {
		case Alive:
			if phi >= d.opt.SuspectPhi {
				move(n, Suspect)
			}
			if ns.state == Suspect && phi >= d.opt.DeadPhi {
				move(n, Dead)
			}
		case Suspect:
			if phi >= d.opt.DeadPhi {
				move(n, Dead)
			}
		case Quarantined:
			// The comeback did not stick: fall back to suspect and let
			// suspicion re-accrue toward Dead.
			ns.okStreak = 0
			move(n, Suspect)
		}
	}
	return out
}

// State returns node's current state; the observer (node 0) and
// out-of-range nodes report Alive.
func (d *Detector) State(node int) State {
	if node <= 0 || node >= len(d.nodes) {
		return Alive
	}
	return d.nodes[node].state
}

// Phi returns node's current suspicion level.
func (d *Detector) Phi(node int) float64 {
	if node <= 0 || node >= len(d.nodes) {
		return 0
	}
	return d.nodes[node].phi(d.round)
}

// Counts aggregates the current state distribution. The observer counts as
// alive.
func (d *Detector) Counts() Counts {
	var c Counts
	c.Alive = 1 // node 0
	for n := 1; n < len(d.nodes); n++ {
		switch d.nodes[n].state {
		case Alive:
			c.Alive++
		case Suspect:
			c.Suspect++
		case Dead:
			c.Dead++
		case Quarantined:
			c.Quarantined++
		}
	}
	return c
}

// Snapshot returns the live health table, one row per node in node order.
func (d *Detector) Snapshot() []NodeHealth {
	out := make([]NodeHealth, len(d.nodes))
	for n := range d.nodes {
		out[n] = NodeHealth{
			Node:   n,
			State:  d.nodes[n].state.String(),
			Phi:    d.Phi(n),
			LastOK: d.nodes[n].lastOK,
		}
		if n == 0 {
			out[n].State = Alive.String()
			out[n].Phi = 0
			out[n].LastOK = d.round
		}
	}
	return out
}

// Log returns a copy of the full transition history.
func (d *Detector) Log() []Transition {
	out := make([]Transition, len(d.log))
	copy(out, d.log)
	return out
}

// DefaultSpecMultiplier scales the execute-latency quantile into the
// straggler-speculation threshold of internal/rt's speculation policy.
const DefaultSpecMultiplier = 3.0
