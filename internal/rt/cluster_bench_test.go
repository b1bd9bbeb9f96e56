package rt

import (
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/wire"
)

// spinEval is the synthetic job task's body (sched.SyntheticEval, which rt
// cannot import): a short pure spin over the point's index.
func spinEval(x int64) []byte {
	v := uint64(x) + 0x9e3779b97f4a7c15
	for i := 0; i < 64; i++ {
		v ^= v >> 33
		v *= 0xff51afd7ed558ccd
	}
	return EncodeF64(float64(v % 1000))
}

// BenchmarkClusterJob runs cluster.wide's job shape in process: a 3-node
// hub mesh (node 0 plus two workers), Metrics attached, four 256-point
// region-free ExecuteIndex calls, then FenceErr and Recycle — what one
// idxserve executor does per job. ns/op and allocs/op are per job, and
// include the in-process workers' side of the mesh; execs/job counts the
// Exec requests node 0 sent.
func BenchmarkClusterJob(b *testing.B) {
	reg := metrics.NewRegistry()
	tc := newTestCluster(b, 3, func(task string, p domain.Point, args []byte) ([]byte, error) {
		return spinEval(p.X()), nil
	}, nil, func(node int, cfg *wire.MeshConfig) {
		if node == 0 {
			cfg.Metrics = reg
		}
	})
	r := MustNew(Config{Nodes: 3, ProcsPerNode: 2, IndexLaunches: true,
		Transport: tc.meshes[0], Metrics: metrics.NewRegistry()})
	defer r.Shutdown()
	id := r.MustRegisterTask("spin", func(ctx *Context) ([]byte, error) { return spinEval(ctx.Point.X()), nil })
	il := core.MustForall("spin", id, domain.Range1(0, 255))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for round := 0; round < 4; round++ {
			if _, err := r.ExecuteIndex(il); err != nil {
				b.Fatal(err)
			}
		}
		if err := r.FenceErr(); err != nil {
			b.Fatal(err)
		}
		if err := r.Recycle(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reg.Counter("wire_execs_total", "").Value())/float64(b.N), "execs/job")
}
