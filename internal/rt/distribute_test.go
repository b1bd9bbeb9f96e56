package rt

import (
	"sync/atomic"
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
	"indexlaunch/internal/wire"
)

// countData is a fabric that counts the KindData frames sent through it.
type countData struct {
	wire.Fabric
	n *atomic.Int64
}

func (f countData) Send(dst int, fr *wire.Frame) error {
	if fr.Kind == wire.KindData {
		f.n.Add(1)
	}
	return f.Fabric.Send(dst, fr)
}

// In cluster mode nothing is broadcast ahead of issuance: a launch with
// region requirements runs on node 0, where the region data lives, and
// costs no frame at all.
func TestClusterRegionLaunchSendsNoDataFrames(t *testing.T) {
	var data atomic.Int64
	tc := newTestCluster(t, 3, squareBody, nil, func(node int, cfg *wire.MeshConfig) {
		if node == 0 {
			cfg.Fabric = countData{cfg.Fabric, &data}
		}
	})
	r := MustNew(Config{Nodes: 3, ProcsPerNode: 2, IndexLaunches: true, Transport: tc.meshes[0]})
	defer r.Shutdown()
	tree, p := lineSetup(t, 40, 4)
	inc := r.MustRegisterTask("inc", incrementTask)
	launch := core.MustForall("inc", inc, domain.Range1(0, 3), core.Requirement{
		Partition: p, Functor: projection.Identity(1),
		Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
	})
	for i := 0; i < 3; i++ {
		if _, err := r.ExecuteIndex(launch); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	if sum, _ := region.SumF64(tree.Root(), fieldVal); sum != 3*40 {
		t.Errorf("sum = %v, want 120", sum)
	}
	if got := data.Load(); got != 0 {
		t.Errorf("node 0 sent %d KindData frames for region launches, want 0", got)
	}
	if st := r.Stats(); st.MsgSends != 0 || st.TasksExecuted != 12 {
		t.Errorf("MsgSends %d TasksExecuted %d, want 0 and 12", st.MsgSends, st.TasksExecuted)
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for n := 1; n < 3; n++ {
		if len(tc.slices[n]) != 0 || tc.executed[n].Load() != 0 {
			t.Errorf("worker %d saw %d descriptors and ran %d points of launches that never left node 0",
				n, len(tc.slices[n]), tc.executed[n].Load())
		}
	}
}
