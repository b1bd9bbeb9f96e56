package rt

import (
	"indexlaunch/internal/wire"
	"indexlaunch/internal/xport"
)

// Status is a point-in-time introspection snapshot of a running runtime:
// the /statusz payload. It is deliberately JSON-shaped — metrics.Serve
// callers pass Runtime.Status as the StatusFunc.
type Status struct {
	// Configuration echo: enough to tell which of the paper's four
	// evaluation configurations is running.
	Nodes         int  `json:"nodes"`
	ProcsPerNode  int  `json:"procs_per_node"`
	DCR           bool `json:"dcr"`
	IndexLaunches bool `json:"index_launches"`

	// Node liveness under fault injection.
	LiveNodes int   `json:"live_nodes"`
	DeadNodes []int `json:"dead_nodes,omitempty"`

	// Launch and task progress.
	LaunchCalls   int64 `json:"launch_calls"`
	TasksExecuted int64 `json:"tasks_executed"`
	InflightTasks int64 `json:"inflight_tasks"`
	BusyProcs     int64 `json:"busy_procs"`

	// OutstandingFence counts issued tasks a fence would currently wait on:
	// the unfinished points of the launches on the fence list.
	OutstandingFence int `json:"outstanding_fence"`

	// Tree is the broadcast tree's current shape; nil in DCR mode, which
	// has no slice transport.
	Tree *xport.TreeShape `json:"tree,omitempty"`

	// Peers is the cluster mesh's per-peer connection table (address,
	// connectivity, byte/message counters); nil unless Config.Transport is
	// a mesh.
	Peers []wire.PeerStatus `json:"peers,omitempty"`
}

// Status snapshots the runtime for live introspection. Safe for concurrent
// use with issuing goroutines; intended to be served as a metrics.StatusFunc.
func (r *Runtime) Status() Status {
	st := Status{
		Nodes:         r.cfg.Nodes,
		ProcsPerNode:  r.cfg.ProcsPerNode,
		DCR:           r.cfg.DCR,
		IndexLaunches: r.cfg.IndexLaunches,
		LaunchCalls:   r.mx.LaunchCalls.Value(),
		TasksExecuted: r.mx.TasksExecuted.Value(),
		InflightTasks: r.mx.InflightTasks.Value(),
		BusyProcs:     r.mx.BusyProcs.Value(),
	}
	r.issueMu.Lock()
	for n, d := range r.dead {
		if d {
			st.DeadNodes = append(st.DeadNodes, n)
		}
	}
	for i := range r.outstanding {
		st.OutstandingFence += int(r.outstanding[i].left())
	}
	r.issueMu.Unlock()
	st.LiveNodes = st.Nodes - len(st.DeadNodes)
	if r.xp != nil {
		sh := r.xp.Shape()
		st.Tree = &sh
	}
	if r.cluster != nil {
		st.Peers = r.cluster.Peers()
	}
	return st
}
