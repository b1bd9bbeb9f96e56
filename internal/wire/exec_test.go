package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
)

// sampleExecRequests returns one request per shape the codec distinguishes:
// dense 1-D and 2-D rects with shared args, a sparse 3-D point list, and
// per-point payloads (some empty).
func sampleExecRequests() []ExecRequest {
	return []ExecRequest{
		{Task: "spin", Index: 1, Domain: domain.Range1(128, 255), Args: []byte("shared")},
		{Task: "stencil", Index: 0, Domain: domain.FromRect(domain.Rect2(-2, 3, 1, 5))},
		{Task: "sweep", Index: 4, Args: []byte{0},
			Domain: domain.DiagonalSlice3(domain.Rect3(0, 0, 0, 3, 3, 3), 4)},
		{Task: "per-point", Index: 2, Domain: domain.Range1(0, 2),
			PointArgs: [][]byte{[]byte("a"), nil, []byte("ccc")}},
		{Task: "one", Domain: domain.FromRect(domain.Rect{Lo: domain.Pt3(4, -7, 123456789), Hi: domain.Pt3(4, -7, 123456789)})},
	}
}

// sampleExecResults returns one result body per shape: all ok, mixed
// ok/error, a later frame of a split answer, and a rejection.
func sampleExecResults() []execResBody {
	return []execResBody{
		{results: []execResult{{val: []byte("v0"), ok: true}, {ok: true}, {val: []byte{1, 2, 3}, ok: true}}},
		{results: []execResult{{val: []byte("fine"), ok: true}, {err: "task exploded"}, {err: ""}}},
		{first: 4096, results: []execResult{{val: bytes.Repeat([]byte{7}, 300), ok: true}}},
		{rejected: true, reason: "node serves no tasks"},
	}
}

func sameRequest(a, b ExecRequest) bool {
	return a.Task == b.Task && a.Index == b.Index && a.Domain.Eq(b.Domain) &&
		a.Domain.Sparse() == b.Domain.Sparse() && bytes.Equal(a.Args, b.Args) &&
		reflect.DeepEqual(a.PointArgs, b.PointArgs)
}

func TestExecBodiesRoundTrip(t *testing.T) {
	// Each sample alone, then all of them in one request.
	bodies := [][]ExecRequest{sampleExecRequests()}
	for _, r := range sampleExecRequests() {
		bodies = append(bodies, []ExecRequest{r})
	}
	for _, rs := range bodies {
		got, descs, err := decodeExecReq(encodeExecReq(3, rs...))
		if err != nil {
			t.Fatalf("%d slices from %s: %v", len(rs), rs[0].Task, err)
		}
		if len(got) != len(rs) || len(descs) != len(rs) {
			t.Fatalf("%d slices decoded to %d with %d descriptors", len(rs), len(got), len(descs))
		}
		for i, want := range rs {
			if !sameRequest(got[i], want) {
				t.Fatalf("%s: got %+v want %+v", want.Task, got[i], want)
			}
			// The embedded descriptor is the broadcast slice payload, verbatim.
			idx, node, dom, err := DecodeSlicePayload(descs[i])
			if err != nil || idx != want.Index || node != 3 || !dom.Eq(want.Domain) {
				t.Fatalf("%s: descriptor (%d, %d, %v, %v)", want.Task, idx, node, dom, err)
			}
			if !bytes.Equal(descs[i], AppendSlicePayload(nil, want.Index, 3, want.Domain)) {
				t.Fatalf("%s: descriptor is not the slice payload", want.Task)
			}
		}
	}
	for i, want := range sampleExecResults() {
		got, err := decodeExecRes(encodeExecRes(&want))
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("result %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestExecDecodersRejectForgedCounts(t *testing.T) {
	// A dense rect whose extents multiply past int64 back into range, a rect
	// of 2^40 points, a per-point request with no payload bytes behind its
	// count, a slice count with nothing (or too little) behind it, slices
	// whose points are each in bounds but not together, and a result count
	// with nothing behind it.
	wrap := domain.FromRect(domain.Rect{Lo: domain.Pt3(0, 0, 0), Hi: domain.Pt3(1<<32-1, 1<<32-1, 2)})
	huge := domain.Range1(0, 1<<40)
	half := ExecRequest{Task: "t", Domain: domain.Range1(0, maxSlicePoints/2)}
	one := encodeExecReq(1, ExecRequest{Task: "t", Domain: domain.Range1(0, 3)})
	for name, body := range map[string][]byte{
		"wrapped volume": encodeExecReq(1, ExecRequest{Task: "t", Domain: wrap}),
		"huge volume":    encodeExecReq(1, ExecRequest{Task: "t", Domain: huge}),
		"empty domain":   encodeExecReq(1, ExecRequest{Task: "t", Domain: domain.Range1(0, -1)}),
		// Per-point mode promising 2^19 payloads and carrying two.
		"point args": encodeExecReq(1, ExecRequest{Task: "t", Domain: domain.Range1(0, 1<<19-1), PointArgs: make([][]byte, 2)}),
		"no slices":  encodeExecReq(1),
		// One slice's bytes behind a count of 2^35, then of 2.
		"huge slice count": append([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, one[1:]...),
		"torn slice count": append([]byte{2}, one[1:]...),
		"points together":  encodeExecReq(1, half, half),
	} {
		if _, _, err := decodeExecReq(body); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := decodeExecRes([]byte{0, 0, 0xFF, 0xFF, 0xFF, 0x7F}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("forged result count: got %v, want ErrCorrupt", err)
	}
}

func TestExecRequestSplitIsDeterministicAndConsecutive(t *testing.T) {
	const n = 5000
	r := ExecRequest{Task: "big", Index: 2, Domain: domain.Range1(100, 100+n-1), PointArgs: make([][]byte, n)}
	for i := range r.PointArgs {
		r.PointArgs[i] = bytes.Repeat([]byte{byte(i)}, 100+i%7)
	}
	const budget = 64 << 10
	parts, err := r.split(budget)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := r.split(budget)
	if len(parts) < 2 || len(parts) != len(again) {
		t.Fatalf("split into %d then %d parts", len(parts), len(again))
	}
	next := 0
	for i, p := range parts {
		if !p.Domain.Eq(again[i].Domain) {
			t.Fatalf("part %d differs between two splits of one request", i)
		}
		if got := len(encodeExecReq(1, p)); got > budget {
			t.Fatalf("part %d encodes to %d bytes, budget %d", i, got, budget)
		}
		if p.Task != r.Task || p.Index != r.Index {
			t.Fatalf("part %d lost its identity: %+v", i, p)
		}
		for j, pt := range p.Domain.Points() {
			if pt.X() != int64(100+next) || !bytes.Equal(p.PointArgs[j], r.PointArgs[next]) {
				t.Fatalf("part %d point %d is %v, want point %d of the slice", i, j, pt, next)
			}
			next++
		}
	}
	if next != n {
		t.Fatalf("parts cover %d of %d points", next, n)
	}
	// One point that cannot fit a frame at all is the caller's to run.
	r.PointArgs[17] = make([]byte, budget)
	if _, err := r.split(budget); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("oversized point: got %v, want ErrUnreachable", err)
	}
}

func TestSplitResultsByByteBudget(t *testing.T) {
	results := make([]execResult, 40)
	for i := range results {
		results[i] = execResult{val: bytes.Repeat([]byte{byte(i)}, 1000), ok: true}
	}
	results[7] = execResult{val: make([]byte, 9000), ok: true} // larger than any frame here
	const budget = 8 << 10
	parts := splitResults(results, budget)
	if len(parts) < 5 {
		t.Fatalf("got %d parts", len(parts))
	}
	next := 0
	for i, p := range parts {
		if p.first != next {
			t.Fatalf("part %d starts at %d, want %d", i, p.first, next)
		}
		if got := len(encodeExecRes(&p)); got > budget {
			t.Fatalf("part %d encodes to %d bytes, budget %d", i, got, budget)
		}
		next += len(p.results)
	}
	if next != len(results) {
		t.Fatalf("parts cover %d of %d results", next, len(results))
	}
	if results[7].ok || !strings.Contains(results[7].err, "9000 bytes") {
		t.Fatalf("unshippable result became %+v", results[7])
	}
}

// sliceMesh builds an n-node hub mesh whose workers run body and record the
// descriptors they were handed; all nodes share one registry.
func sliceMesh(t *testing.T, n int, body func(task string, p domain.Point, args []byte) ([]byte, error)) ([]*Mesh, *metrics.Registry, func(node int) [][]byte) {
	t.Helper()
	fabs := hubFabrics(n)
	reg := metrics.NewRegistry()
	var mu sync.Mutex
	descs := map[int][][]byte{}
	meshes := make([]*Mesh, n)
	for i := range meshes {
		m, err := NewMesh(MeshConfig{
			Self: i, Nodes: n, Fabric: fabs[i], Metrics: reg, Exec: body, ExecTimeout: 10 * time.Second,
			Deliver: func(node int, tag string, payload []byte) {
				mu.Lock()
				descs[node] = append(descs[node], payload)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		meshes[i] = m
		t.Cleanup(func() { _ = m.Close() })
	}
	return meshes, reg, func(node int) [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), descs[node]...)
	}
}

func TestMeshExecSlice(t *testing.T) {
	body := func(task string, p domain.Point, args []byte) ([]byte, error) {
		if p.X() == 13 {
			return nil, errors.New("unlucky")
		}
		return []byte(fmt.Sprintf("%s(%v)%s", task, p, args)), nil
	}
	meshes, reg, descs := sliceMesh(t, 3, body)
	counter := func(name string) int64 { return reg.Counter(name, "").Value() }

	// One dense slice with one failing point: every other point answers, in
	// the domain's order, and the failure is that point's alone.
	dense := ExecRequest{Task: "sq", Index: 1, Domain: domain.Range1(10, 19), Args: []byte("!")}
	res, err := meshes[0].ExecSlice(1, dense)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range dense.Domain.Points() {
		switch {
		case p.X() == 13:
			if res[i].Err == nil || errors.Is(res[i].Err, ErrUnreachable) || !strings.Contains(res[i].Err.Error(), "unlucky") {
				t.Fatalf("point %v: err %v", p, res[i].Err)
			}
		case res[i].Err != nil || string(res[i].Val) != fmt.Sprintf("sq(%v)!", p):
			t.Fatalf("point %v: %q %v", p, res[i].Val, res[i].Err)
		}
	}
	// A sparse 2-D slice with per-point payloads.
	pts := []domain.Point{domain.Pt2(0, 5), domain.Pt2(2, 1), domain.Pt2(2, 7), domain.Pt2(9, 0)}
	sparse := ExecRequest{Task: "pp", Index: 2, Domain: domain.FromPoints(pts),
		PointArgs: [][]byte{[]byte("a"), []byte("b"), nil, []byte("d")}}
	res, err = meshes[0].ExecSlice(2, sparse)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if want := fmt.Sprintf("pp(%v)%s", p, sparse.PointArgs[i]); res[i].Err != nil || string(res[i].Val) != want {
			t.Fatalf("point %v: %q %v, want %q", p, res[i].Val, res[i].Err, want)
		}
	}
	// Two slices, two Exec frames; a point's body error is not a wire error.
	if got := counter("wire_execs_total"); got != 2 {
		t.Fatalf("wire_execs_total = %d, want 2", got)
	}
	if got := counter("wire_exec_errors_total"); got != 0 {
		t.Fatalf("wire_exec_errors_total = %d, want 0", got)
	}
	// Each worker was handed its slice's descriptor: the broadcast payload.
	for node, r := range map[int]ExecRequest{1: dense, 2: sparse} {
		got := descs(node)
		if len(got) != 1 || !bytes.Equal(got[0], AppendSlicePayload(nil, r.Index, node, r.Domain)) {
			t.Fatalf("node %d descriptors: %v", node, got)
		}
	}
	// The single-point wrapper reports its point's body error as a failed
	// call, as it always has.
	if _, err := meshes[0].Exec(1, "sq", domain.Pt1(13), nil); err == nil || errors.Is(err, ErrUnreachable) {
		t.Fatalf("single-point body error: %v", err)
	}
	if got := counter("wire_exec_errors_total"); got != 1 {
		t.Fatalf("wire_exec_errors_total = %d after a failed single-point Exec, want 1", got)
	}
}

func TestMeshExecSliceRejectedByTasklessNode(t *testing.T) {
	meshes, reg, _ := sliceMesh(t, 2, nil)
	_, err := meshes[0].ExecSlice(1, ExecRequest{Task: "t", Domain: domain.Range1(0, 3)})
	if err == nil || errors.Is(err, ErrUnreachable) || !strings.Contains(err.Error(), "serves no tasks") {
		t.Fatalf("got %v, want a rejection", err)
	}
	if got := reg.Counter("wire_exec_errors_total", "").Value(); got != 1 {
		t.Fatalf("wire_exec_errors_total = %d, want 1", got)
	}
}

// TestMeshExecSliceSplitsOversizedAnswer: a slice whose results add up to
// just over MaxFrameSize comes back in two Result frames (the codec hub
// would refuse a larger one) and completes.
func TestMeshExecSliceSplitsOversizedAnswer(t *testing.T) {
	const points, each = 33, 32 << 10 // 33 × 32 KiB > 1 MiB
	body := func(task string, p domain.Point, args []byte) ([]byte, error) {
		return bytes.Repeat([]byte{byte(p.X())}, each), nil
	}
	meshes, reg, _ := sliceMesh(t, 2, body)
	res, err := meshes[0].ExecSlice(1, ExecRequest{Task: "fat", Domain: domain.Range1(0, points-1)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || len(r.Val) != each || r.Val[0] != byte(i) || r.Val[each-1] != byte(i) {
			t.Fatalf("point %d: %d bytes, err %v", i, len(r.Val), r.Err)
		}
	}
	if got := reg.Counter("wire_execs_total", "").Value(); got != 1 {
		t.Fatalf("wire_execs_total = %d, want 1 (the answer splits, not the request)", got)
	}
	// The request side: per-point payloads over the bound travel as two
	// Exec frames and still answer in slice order.
	args := make([][]byte, points)
	for i := range args {
		args[i] = bytes.Repeat([]byte{byte(i)}, each)
	}
	echo := func(task string, p domain.Point, a []byte) ([]byte, error) { return a[:1], nil }
	meshes, reg, _ = sliceMesh(t, 2, echo)
	res, err = meshes[0].ExecSlice(1, ExecRequest{Task: "fat", Domain: domain.Range1(0, points-1), PointArgs: args})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || len(r.Val) != 1 || r.Val[0] != byte(i) {
			t.Fatalf("point %d: %v %v", i, r.Val, r.Err)
		}
	}
	if got := reg.Counter("wire_execs_total", "").Value(); got != 2 {
		t.Fatalf("wire_execs_total = %d, want 2", got)
	}
}

// TestMeshExecSlicePacksSlicesIntoFrames: slices handed to one ExecSlice
// call — of different tasks, dense and sparse, shared and per-point
// payloads — share one Exec frame when they fit one, each descriptor
// reaches Deliver, and the answers come back concatenated in the order
// given. Slices that overflow a frame together go one by one, a slice too
// large alone split into consecutive sub-slices; an empty one sends
// nothing.
func TestMeshExecSlicePacksSlicesIntoFrames(t *testing.T) {
	body := func(task string, p domain.Point, args []byte) ([]byte, error) {
		return []byte(fmt.Sprintf("%s(%v)%.3s", task, p, args)), nil
	}
	meshes, reg, descs := sliceMesh(t, 2, body)
	rs := []ExecRequest{
		{Task: "sq", Index: 0, Domain: domain.Range1(0, 9), Args: []byte("!")},
		{Task: "pp", Index: 3, Domain: domain.FromPoints([]domain.Point{domain.Pt1(4), domain.Pt1(40)}),
			PointArgs: [][]byte{[]byte("a"), []byte("b")}},
		{Task: "sq", Index: 2, Domain: domain.FromRect(domain.Rect2(0, 0, 1, 2))},
	}
	check := func(rs []ExecRequest, res []PointResult) {
		t.Helper()
		i := 0
		for _, r := range rs {
			for j, p := range r.Domain.Points() {
				a := r.Args
				if r.PointArgs != nil {
					a = r.PointArgs[j]
				}
				if want := fmt.Sprintf("%s(%v)%.3s", r.Task, p, a); res[i].Err != nil || string(res[i].Val) != want {
					t.Fatalf("result %d: %q %v, want %q", i, res[i].Val, res[i].Err, want)
				}
				i++
			}
		}
		if i != len(res) {
			t.Fatalf("%d results for %d points", len(res), i)
		}
	}
	res, err := meshes[0].ExecSlice(1, rs...)
	if err != nil {
		t.Fatal(err)
	}
	check(rs, res)
	if got := reg.Counter("wire_execs_total", "").Value(); got != 1 {
		t.Fatalf("wire_execs_total = %d, want 1", got)
	}
	got := descs(1)
	if len(got) != 3 {
		t.Fatalf("worker got %d descriptors, want 3", len(got))
	}
	for i, r := range rs {
		if !bytes.Equal(got[i], AppendSlicePayload(nil, r.Index, 1, r.Domain)) {
			t.Fatalf("descriptor %d: %v", i, got[i])
		}
	}

	// 3 × 400 KiB of shared payload overflow one frame; a 40-point slice of
	// 32 KiB payloads fits none and splits.
	fat := bytes.Repeat([]byte("x"), 400<<10)
	pa := make([][]byte, 40)
	for i := range pa {
		pa[i] = bytes.Repeat([]byte{'a' + byte(i%26)}, 32<<10)
	}
	big := []ExecRequest{
		{Task: "f", Domain: domain.Range1(0, 1), Args: fat},
		{Task: "f", Domain: domain.Range1(2, 3), Args: fat},
		{Task: "f", Domain: domain.Range1(4, 4), Args: fat},
		{Task: "g", Domain: domain.Range1(0, 39), PointArgs: pa},
		{Task: "none", Domain: domain.Range1(0, -1)},
		{Task: "h", Domain: domain.Range1(7, 8)},
	}
	res, err = meshes[0].ExecSlice(1, big...)
	if err != nil {
		t.Fatal(err)
	}
	check(big, res)
	// Frames: f, f, f, g's two parts, h.
	if got := reg.Counter("wire_execs_total", "").Value() - 1; got != 6 {
		t.Fatalf("wire_execs_total grew by %d, want 6", got)
	}
}
