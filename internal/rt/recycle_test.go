package rt

import (
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
)

// The executor-pool support surface: TaskNamed lookup, CapacityFactor
// liveness read-through, and Recycle's reuse contract (quiescent-only reset
// of per-job bookkeeping while registered tasks and config survive).

func TestRecycleBetweenJobs(t *testing.T) {
	r := MustNew(Config{Nodes: 4, ProcsPerNode: 2, IndexLaunches: true})
	defer r.Shutdown()
	id := r.MustRegisterTask("noop", func(ctx *Context) ([]byte, error) {
		return EncodeF64(float64(ctx.Point.X())), nil
	})
	if got, ok := r.TaskNamed("noop"); !ok || got != id {
		t.Fatalf("TaskNamed = %v, %v; want %v, true", got, ok, id)
	}
	if _, ok := r.TaskNamed("missing"); ok {
		t.Fatal("TaskNamed found an unregistered task")
	}
	if f := r.CapacityFactor(); f != 1 {
		t.Fatalf("CapacityFactor = %v on a healthy machine, want 1", f)
	}
	for job := 0; job < 3; job++ {
		launch := core.MustForall("noop", id, domain.Range1(0, 15))
		if _, err := r.ExecuteIndex(launch); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if err := r.FenceErr(); err != nil {
			t.Fatalf("job %d fence: %v", job, err)
		}
		if err := r.Recycle(); err != nil {
			t.Fatalf("job %d recycle: %v", job, err)
		}
	}
	// Tasks registered before recycling still resolve.
	if _, ok := r.TaskNamed("noop"); !ok {
		t.Fatal("registered task lost across Recycle")
	}
	if st := r.Stats(); st.TasksExecuted != 48 {
		t.Fatalf("TasksExecuted = %d across 3 recycled jobs, want 48", st.TasksExecuted)
	}
}
