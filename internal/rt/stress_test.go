package rt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

// The stress test generates random programs — sequences of index launches,
// single-task launches and region-free launches with randomly chosen
// privileges, functors and partitions over one shared collection — executes
// them on the concurrent runtime, and compares the final data (and every
// region-free result) against a deterministic sequential model. Any missed
// dependence edge shows up as a divergence. The same program runs on every
// distribution path (DCR, centralized, a cluster hub mesh), untraced and
// traced: part of it is a loop body issued three times between
// BeginTrace/EndTrace, so a traced run is one capture plus two replays.
// Each episode is followed by one un-traced op ("trace"), or the episodes
// run back to back and their un-traced ops follow in bulk after the last
// ("bulk"), so each replay starts from the previous episode's bulk update.

type stressOp struct {
	priv  privilege.Privilege
	shift int64 // functor: identity shifted by this amount mod blocks
	scale float64
	domLo int64
	domHi int64
}

func randomOps(rng *rand.Rand, n int, blocks int64) []stressOp {
	ops := make([]stressOp, n)
	for i := range ops {
		privs := []privilege.Privilege{privilege.Read, privilege.Write, privilege.ReadWrite, privilege.Reduce}
		lo := rng.Int63n(blocks)
		hi := lo + rng.Int63n(blocks-lo)
		ops[i] = stressOp{
			priv:  privs[rng.Intn(len(privs))],
			shift: rng.Int63n(blocks),
			scale: float64(1 + rng.Intn(5)),
			domLo: lo,
			domHi: hi,
		}
	}
	return ops
}

// applySequential executes the op's semantics directly: for each launch
// point p in order, the task touches block (p+shift) mod blocks.
func applySequential(data []float64, blockSize int64, op stressOp, blocks int64) {
	for p := op.domLo; p <= op.domHi; p++ {
		b := (p + op.shift) % blocks
		for e := b * blockSize; e < (b+1)*blockSize; e++ {
			switch op.priv {
			case privilege.Read:
				// no effect
			case privilege.Write:
				data[e] = op.scale
			case privilege.ReadWrite:
				data[e] = data[e]*op.scale + 1
			case privilege.Reduce:
				data[e] += op.scale
			}
		}
	}
}

// Program shape of the differential harness: a prefix, a loop body issued
// stressEpisodes times (each followed by one un-traced op) and a suffix.
const (
	stressPrefix   = 8
	stressBody     = 8
	stressEpisodes = 3
	stressSuffix   = 8
)

func TestStressRandomProgramsMatchSequentialModel(t *testing.T) {
	for _, seed := range envSeeds(t, "RT_DIFF_SEEDS", diffSeeds) {
		for _, path := range []string{"dcr", "central", "cluster"} {
			for _, trace := range []string{"untraced", "trace", "bulk"} {
				// Launch handling: index launches kept compact (the unnamed
				// default), verified by the hybrid safety analysis, or expanded
				// at issuance (No-IDX).
				for _, launches := range []string{"", "verify", "noidx"} {
					name := fmt.Sprintf("seed=%d/%s/%s", seed, path, trace)
					if launches != "" {
						name += "/" + launches
					}
					t.Run(name, func(t *testing.T) {
						runStressDifferential(t, seed, path, trace, launches)
					})
				}
			}
		}
	}
}

func runStressDifferential(t *testing.T, seed int64, path, trace, launches string) {
	const (
		blocks    = 8
		blockSize = 4
		elements  = blocks * blockSize
	)
	rng := rand.New(rand.NewSource(seed))
	ops := randomOps(rng, stressPrefix+stressBody+stressEpisodes+stressSuffix, blocks)
	// kind 0 is an index launch; 1 an ExecuteSingle of the launch's first
	// point; 2 a region-free launch whose results are checked instead.
	kinds := make([]int, len(ops))
	for i := range kinds {
		if k := rng.Intn(6); k < 3 {
			kinds[i] = k
		}
	}

	cfg := Config{Nodes: 3, ProcsPerNode: 2, DCR: path == "dcr",
		IndexLaunches: launches != "noidx", VerifyLaunches: launches == "verify"}
	traced := trace != "untraced"
	pure := func(point domain.Point, args []byte) []byte {
		return EncodeF64(float64(args[0]) * float64(point.X()))
	}
	if path == "cluster" {
		tc := newTestCluster(t, cfg.Nodes, func(task string, point domain.Point, args []byte) ([]byte, error) {
			return pure(point, args), nil
		}, nil)
		cfg.Transport = tc.meshes[0]
	}
	r := MustNew(cfg)
	defer r.Shutdown()

	fs := region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
	tree := region.MustNewTree("stress", domain.Range1(0, elements-1), fs)
	part, err := tree.PartitionEqual(tree.Root(), "blocks", blocks)
	if err != nil {
		t.Fatal(err)
	}
	pureTask := r.MustRegisterTask("pure", func(ctx *Context) ([]byte, error) {
		return pure(ctx.Point, ctx.Args), nil
	})
	task := r.MustRegisterTask("op", func(ctx *Context) ([]byte, error) {
		scale := float64(ctx.Args[0])
		pr, _ := ctx.Region(0)
		switch pr.Priv {
		case privilege.Read:
			acc, err := ctx.ReadF64(0, 0)
			if err != nil {
				return nil, err
			}
			var s float64
			pr.Region.Domain.Each(func(p domain.Point) bool {
				s += acc.Get(p)
				return true
			})
			return EncodeF64(s), nil
		case privilege.Write:
			acc, err := ctx.WriteF64(0, 0)
			if err != nil {
				return nil, err
			}
			pr.Region.Domain.Each(func(p domain.Point) bool {
				acc.Set(p, scale)
				return true
			})
		case privilege.ReadWrite:
			acc, err := ctx.WriteF64(0, 0)
			if err != nil {
				return nil, err
			}
			in, err := ctx.ReadF64(0, 0)
			if err != nil {
				return nil, err
			}
			pr.Region.Domain.Each(func(p domain.Point) bool {
				acc.Set(p, in.Get(p)*scale+1)
				return true
			})
		case privilege.Reduce:
			red, err := ctx.ReduceF64(0, 0)
			if err != nil {
				return nil, err
			}
			pr.Region.Domain.Each(func(p domain.Point) bool {
				red.Fold(p, scale)
				return true
			})
		}
		return nil, nil
	})

	model := make([]float64, elements)
	var fms []*FutureMap
	var pureFMs []*FutureMap
	var pureWant []float64
	issue := func(i int) {
		op, args := ops[i], []byte{byte(ops[i].scale)}
		redOp := privilege.OpNone
		if op.priv == privilege.Reduce {
			redOp = privilege.OpSumF64
		}
		switch kinds[i] {
		case 1:
			op.domHi = op.domLo
			sub := part.MustSubregion(domain.Pt1((op.domLo + op.shift) % blocks))
			_, err := r.ExecuteSingle("op", task, []SingleReq{{
				Region: sub, Priv: op.priv, RedOp: redOp, Fields: []region.FieldID{0},
			}}, args)
			if err != nil {
				t.Fatal(err)
			}
		case 2:
			launch := core.MustForall("pure", pureTask, domain.Range1(op.domLo, op.domHi))
			launch.Args = args
			fm, err := r.ExecuteIndex(launch)
			if err != nil {
				t.Fatal(err)
			}
			pureFMs = append(pureFMs, fm)
			pureWant = append(pureWant, op.scale*float64((op.domLo+op.domHi)*(op.domHi-op.domLo+1)/2))
			return
		default:
			launch := core.MustForall("op", task, domain.Range1(op.domLo, op.domHi), core.Requirement{
				Partition: part,
				Functor:   projection.Modular1D(1, op.shift, blocks),
				Priv:      op.priv,
				RedOp:     redOp,
				Fields:    []region.FieldID{0},
			})
			launch.Args = args
			fm, err := r.ExecuteIndex(launch)
			if err != nil {
				t.Fatal(err)
			}
			fms = append(fms, fm)
		}
		applySequential(model, blockSize, op, blocks)
	}

	next := 0
	for ; next < stressPrefix; next++ {
		issue(next)
	}
	for ep := 0; ep < stressEpisodes; ep++ {
		if traced {
			if err := r.BeginTrace(1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < stressBody; i++ {
			issue(stressPrefix + i)
		}
		if traced {
			if err := r.EndTrace(1); err != nil {
				t.Fatal(err)
			}
		}
		if trace != "bulk" {
			issue(stressPrefix + stressBody + ep)
		}
	}
	next = stressPrefix + stressBody + stressEpisodes
	if trace == "bulk" {
		next = stressPrefix + stressBody
	}
	for ; next < len(ops); next++ {
		issue(next)
	}
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	for _, fm := range fms {
		if err := fm.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i, fm := range pureFMs {
		if got, err := fm.SumF64(); err != nil || got != pureWant[i] {
			t.Fatalf("region-free launch %d sums to %v, %v; want %v", i, got, err, pureWant[i])
		}
	}
	if traced {
		if st := r.Stats(); st.TraceCaptures != 1 || st.TraceReplays != stressEpisodes-1 {
			t.Fatalf("captures=%d replays=%d, want 1 and %d", st.TraceCaptures, st.TraceReplays, stressEpisodes-1)
		}
	}

	acc := region.MustFieldF64(tree.Root(), 0)
	for e := int64(0); e < elements; e++ {
		got := acc.Get(domain.Pt1(e))
		if got != model[e] {
			t.Fatalf("element %d = %v, sequential model says %v (missed dependence?)",
				e, got, model[e])
		}
	}
}

// TestStressFaultMatrixMatchesSequentialModel runs the random-program
// harness under the full fault matrix — node-failure injection × {DCR,
// centralized} × {IndexLaunches on, off} × retries — with every third
// (op, point) pair failing transiently on its first attempt (half of those
// by panicking). Retries must recover every transient, re-mapping must
// absorb the node kill, and the final region contents must match the
// fault-free sequential model exactly. Run with -race.
func TestStressFaultMatrixMatchesSequentialModel(t *testing.T) {
	const (
		blocks    = 8
		blockSize = 4
		elements  = blocks * blockSize
		opsPerRun = 24
	)
	for _, dcr := range []bool{false, true} {
		for _, idx := range []bool{false, true} {
			name := fmt.Sprintf("dcr=%v/idx=%v", dcr, idx)
			t.Run(name, func(t *testing.T) {
				runStressWithFaults(t, Config{
					Nodes: 4, ProcsPerNode: 2, DCR: dcr, IndexLaunches: idx,
					Retry: RetryPolicy{Max: 2},
					Fault: NewFaultInjector(11).KillRandomNode(4, 40),
				}, blocks, blockSize, elements, opsPerRun, 3)
			})
		}
	}
}

// TestStressFaultCountersDeterministic repeats one faulty configuration and
// checks the fault counters in Stats are identical across runs: same seed +
// same Config ⇒ same Panics, Retries, NodeFailures, Remapped.
func TestStressFaultCountersDeterministic(t *testing.T) {
	const (
		blocks    = 8
		blockSize = 4
		elements  = blocks * blockSize
		opsPerRun = 24
	)
	var prev *Stats
	for run := 0; run < 3; run++ {
		st := runStressWithFaults(t, Config{
			Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true,
			Retry: RetryPolicy{Max: 2},
			Fault: NewFaultInjector(11).KillRandomNode(4, 40),
		}, blocks, blockSize, elements, opsPerRun, 3)
		if prev != nil {
			if st.Panics != prev.Panics || st.Retries != prev.Retries ||
				st.TasksFailed != prev.TasksFailed || st.TasksSkipped != prev.TasksSkipped ||
				st.NodeFailures != prev.NodeFailures || st.Remapped != prev.Remapped {
				t.Fatalf("run %d fault counters diverged:\n%+v\n%+v", run, st, *prev)
			}
		}
		prev = &st
	}
	if prev.Retries == 0 || prev.NodeFailures != 1 || prev.Remapped == 0 || prev.Panics == 0 {
		t.Errorf("fault machinery unexercised: %+v", *prev)
	}
}

// runStressWithFaults executes one random program under cfg with transient
// first-attempt failures injected into every third (op, point) pair, checks
// the final contents against the sequential model, and returns the stats.
func runStressWithFaults(t *testing.T, cfg Config, blocks, blockSize, elements int64, opsPerRun, progSeed int) Stats {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(progSeed)))
	ops := randomOps(rng, opsPerRun, blocks)

	model := make([]float64, elements)

	r := MustNew(cfg)
	fs := region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
	tree := region.MustNewTree("stress", domain.Range1(0, elements-1), fs)
	part, err := tree.PartitionEqual(tree.Root(), "blocks", int(blocks))
	if err != nil {
		t.Fatal(err)
	}

	// Transient-fault schedule: (op, point) pairs with (op+point)%3 == 0
	// fail on their first attempt — by panic when the sum is even, by error
	// otherwise. The failure fires before any region access, so a retried
	// attempt always sees clean state.
	var mu sync.Mutex
	attempts := map[[2]int64]int{}
	firstAttemptFails := func(op, point int64) (fail, viaPanic bool) {
		mu.Lock()
		attempts[[2]int64{op, point}]++
		first := attempts[[2]int64{op, point}] == 1
		mu.Unlock()
		s := op + point
		return first && s%3 == 0, s%2 == 0
	}

	task := r.MustRegisterTask("op", func(ctx *Context) ([]byte, error) {
		opIdx := int64(ctx.Args[1])
		if fail, viaPanic := firstAttemptFails(opIdx, ctx.Point.X()); fail {
			if viaPanic {
				panic(fmt.Sprintf("injected panic at op %d point %v", opIdx, ctx.Point))
			}
			return nil, fmt.Errorf("injected fault at op %d point %v", opIdx, ctx.Point)
		}
		scale := float64(ctx.Args[0])
		pr, _ := ctx.Region(0)
		switch pr.Priv {
		case privilege.Write:
			acc, err := ctx.WriteF64(0, 0)
			if err != nil {
				return nil, err
			}
			pr.Region.Domain.Each(func(p domain.Point) bool {
				acc.Set(p, scale)
				return true
			})
		case privilege.ReadWrite:
			acc, err := ctx.WriteF64(0, 0)
			if err != nil {
				return nil, err
			}
			in, err := ctx.ReadF64(0, 0)
			if err != nil {
				return nil, err
			}
			pr.Region.Domain.Each(func(p domain.Point) bool {
				acc.Set(p, in.Get(p)*scale+1)
				return true
			})
		case privilege.Reduce:
			red, err := ctx.ReduceF64(0, 0)
			if err != nil {
				return nil, err
			}
			pr.Region.Domain.Each(func(p domain.Point) bool {
				red.Fold(p, scale)
				return true
			})
		}
		return nil, nil
	})

	for i, op := range ops {
		applySequential(model, blockSize, op, blocks)
		req := core.Requirement{
			Partition: part,
			Functor:   projection.Modular1D(1, op.shift, blocks),
			Priv:      op.priv,
			Fields:    []region.FieldID{0},
		}
		if op.priv == privilege.Reduce {
			req.RedOp = privilege.OpSumF64
		}
		launch := core.MustForall("op", task, domain.Range1(op.domLo, op.domHi), req)
		launch.Args = []byte{byte(op.scale), byte(i)}
		if _, err := r.ExecuteIndex(launch); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.FenceErr(); err != nil {
		t.Fatalf("faulty run did not recover: %v", err)
	}

	acc := region.MustFieldF64(tree.Root(), 0)
	for e := int64(0); e < elements; e++ {
		got := acc.Get(domain.Pt1(e))
		if got != model[e] {
			t.Fatalf("element %d = %v, sequential model says %v (fault recovery diverged)",
				e, got, model[e])
		}
	}
	return r.Stats()
}

// TestStressOverlappingWritersSerializeDeterministically issues the same
// conflicting-writer program twice and checks the results agree: the
// version map must impose program order on conflicts regardless of
// scheduling.
func TestStressOverlappingWritersSerializeDeterministically(t *testing.T) {
	run := func() float64 {
		r := MustNew(Config{Nodes: 4, ProcsPerNode: 4, DCR: true, IndexLaunches: true})
		fs := region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
		tree := region.MustNewTree("d", domain.Range1(0, 31), fs)
		part, _ := tree.PartitionEqual(tree.Root(), "b", 4)
		task := r.MustRegisterTask("chain", func(ctx *Context) ([]byte, error) {
			acc, err := ctx.WriteF64(0, 0)
			if err != nil {
				return nil, err
			}
			in, err := ctx.ReadF64(0, 0)
			if err != nil {
				return nil, err
			}
			pr, _ := ctx.Region(0)
			pr.Region.Domain.Each(func(p domain.Point) bool {
				acc.Set(p, in.Get(p)*2+float64(ctx.Point.X()))
				return true
			})
			return nil, nil
		})
		// 16 launches, every one touching all 4 blocks via (i+k)%4 over a
		// 4-point domain — every pair of consecutive launches conflicts.
		for k := int64(0); k < 16; k++ {
			launch := core.MustForall("chain", task, domain.Range1(0, 3), core.Requirement{
				Partition: part, Functor: projection.Modular1D(1, k, 4),
				Priv: privilege.ReadWrite, Fields: []region.FieldID{0},
			})
			if _, err := r.ExecuteIndex(launch); err != nil {
				t.Fatal(err)
			}
		}
		r.Fence()
		sum, _ := region.SumF64(tree.Root(), 0)
		return sum
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs diverged: %v vs %v", a, b)
	}
}
