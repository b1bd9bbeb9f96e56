package rt

import (
	"fmt"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/region"
)

// TaskFn is the body of a task variant. It receives a Context giving access
// to the task's point, by-value arguments, and privileged region views, and
// returns an optional result payload.
type TaskFn func(ctx *Context) ([]byte, error)

// PhysicalRegion is a region view handed to a running task together with the
// privilege it was requested under. Accessor methods enforce the privilege:
// reading through a write-only view or writing through a read-only view is a
// programming error reported at accessor acquisition.
type PhysicalRegion struct {
	Region *region.Region
	Priv   privilege.Privilege
	RedOp  privilege.OpID
	Fields []region.FieldID
}

func (pr PhysicalRegion) hasField(id region.FieldID) bool {
	for _, f := range pr.Fields {
		if f == id {
			return true
		}
	}
	return false
}

// Context is passed to every executing task. It is valid only during the
// body call: each drainer reuses one Context for every attempt it runs, so a
// body must not retain it — or an accessor or reducer it handed out — nor
// hand it to a goroutine that outlives the call.
type Context struct {
	// Point is the task's index within its launch domain, a task loop's
	// too (Pt1(0) for ExecuteSingle's task).
	Point domain.Point
	// Node is the simulated node the task was assigned to.
	Node int
	// Task is the executing task's ID.
	Task core.TaskID
	// Args is the launch's by-value payload.
	Args []byte

	reqs        []PhysicalRegion // the launch's; Region unset
	regions     []*region.Region // the point's, one per requirement
	reducers    []*ReducerF64
	reducersI64 []*ReducerI64
	rt          *Runtime // its reduceMu serializes flushes
}

// reset readies a drainer's Context for the next attempt. What the last
// one left is dropped: a failed attempt's buffered folds are never flushed.
func (c *Context) reset(p domain.Point, node int, h *runHeader, regions []*region.Region, args []byte) {
	for _, r := range c.reducers {
		r.buf = truncFolds(r.buf)
	}
	for _, r := range c.reducersI64 {
		r.buf = truncFolds(r.buf)
	}
	*c = Context{Point: p, Node: node, Task: h.task, Args: args, reqs: h.reqs, regions: regions,
		reducers: c.reducers[:0], reducersI64: c.reducersI64[:0], rt: c.rt}
}

// NumRegions returns the number of region arguments.
func (c *Context) NumRegions() int { return len(c.regions) }

// Region returns the i-th region argument.
func (c *Context) Region(i int) (PhysicalRegion, error) {
	if i < 0 || i >= len(c.regions) {
		return PhysicalRegion{}, fmt.Errorf("rt: task has %d region args, requested %d", len(c.regions), i)
	}
	pr := c.reqs[i]
	pr.Region = c.regions[i]
	return pr, nil
}

// ReadF64 returns a read accessor for field on region argument i. The
// declared privilege must include read access.
func (c *Context) ReadF64(i int, field region.FieldID) (region.AccF64, error) {
	pr, err := c.checked(i, field, func(p privilege.Privilege) bool { return p.IsRead() }, "read")
	if err != nil {
		return region.AccF64{}, err
	}
	return region.FieldF64(pr.Region, field)
}

// WriteF64 returns a write accessor for field on region argument i. The
// declared privilege must include write access (reductions excluded: use
// ReduceF64).
func (c *Context) WriteF64(i int, field region.FieldID) (region.AccF64, error) {
	pr, err := c.checked(i, field, func(p privilege.Privilege) bool {
		return p == privilege.Write || p == privilege.ReadWrite
	}, "write")
	if err != nil {
		return region.AccF64{}, err
	}
	return region.FieldF64(pr.Region, field)
}

// ReduceF64 returns a fold-only reduction view for field on region argument
// i, which must have been requested with Reduce privilege.
//
// The view is a private, list-style reduction instance: each Fold resolves
// its point to a storage offset at fold time and buffers the (offset, value)
// pair, and the pairs are applied to the shared collection in fold order
// only after the task body returns, under a runtime-wide fold lock. This is
// what lets same-operator reductions from parallel tasks commute without
// racing — the analog of Legion's reduction instances, and like them the
// buffers are reused: the view, and its buffer, belong to the drainer's
// Context. A fold at a point outside the region tree panics in Fold and
// fails the task; a fold outside the requested subregion but inside the
// tree is not checked, as for Get and Set.
func (c *Context) ReduceF64(i int, field region.FieldID) (*ReducerF64, error) {
	pr, err := c.checked(i, field, func(p privilege.Privilege) bool { return p == privilege.Reduce }, "reduce")
	if err != nil {
		return nil, err
	}
	acc, err := region.FieldF64(pr.Region, field)
	if err != nil {
		return nil, err
	}
	op, err := privilege.LookupOp(pr.RedOp)
	if err != nil {
		return nil, err
	}
	r := nextView(&c.reducers)
	*r = ReducerF64{acc: acc, id: pr.RedOp, op: op, buf: r.buf}
	return r, nil
}

// ReadI64 returns a read accessor for an int64 field on region argument i.
func (c *Context) ReadI64(i int, field region.FieldID) (region.AccI64, error) {
	pr, err := c.checked(i, field, func(p privilege.Privilege) bool { return p.IsRead() }, "read")
	if err != nil {
		return region.AccI64{}, err
	}
	return region.FieldI64(pr.Region, field)
}

// WriteI64 returns a write accessor for an int64 field on region argument i.
func (c *Context) WriteI64(i int, field region.FieldID) (region.AccI64, error) {
	pr, err := c.checked(i, field, func(p privilege.Privilege) bool {
		return p == privilege.Write || p == privilege.ReadWrite
	}, "write")
	if err != nil {
		return region.AccI64{}, err
	}
	return region.FieldI64(pr.Region, field)
}

func (c *Context) checked(i int, field region.FieldID, ok func(privilege.Privilege) bool, what string) (PhysicalRegion, error) {
	pr, err := c.Region(i)
	if err != nil {
		return PhysicalRegion{}, err
	}
	if !pr.hasField(field) {
		return PhysicalRegion{}, fmt.Errorf("rt: region arg %d was not requested with field %d", i, field)
	}
	if !ok(pr.Priv) {
		return PhysicalRegion{}, fmt.Errorf("rt: region arg %d declared %q, cannot %s", i, pr.Priv, what)
	}
	return pr, nil
}

// ReduceI64 returns a fold-only reduction view for an int64 field on region
// argument i, which must have been requested with Reduce privilege. Like
// ReduceF64, folds resolve their offset at fold time — an out-of-tree point
// fails the task — and buffer in a private reduction instance until the
// task completes.
func (c *Context) ReduceI64(i int, field region.FieldID) (*ReducerI64, error) {
	pr, err := c.checked(i, field, func(p privilege.Privilege) bool { return p == privilege.Reduce }, "reduce")
	if err != nil {
		return nil, err
	}
	acc, err := region.FieldI64(pr.Region, field)
	if err != nil {
		return nil, err
	}
	op, err := privilege.LookupOp(pr.RedOp)
	if err != nil {
		return nil, err
	}
	r := nextView(&c.reducersI64)
	*r = ReducerI64{acc: acc, id: pr.RedOp, op: op, buf: r.buf}
	return r, nil
}

// nextView appends a reduction view to views, reusing the one an earlier
// attempt on the same Context left past the end: like the Context, a view
// is valid only during the body call.
func nextView[T any](views *[]*T) *T {
	if n := len(*views); n < cap(*views) && (*views)[:n+1][n] != nil {
		*views = (*views)[:n+1]
		return (*views)[n]
	}
	v := new(T)
	*views = append(*views, v)
	return v
}

// ReducerI64 is the int64 analog of ReducerF64.
type ReducerI64 struct {
	acc region.AccI64
	id  privilege.OpID
	op  privilege.ReductionOp
	buf []region.Fold[int64]
}

// Fold combines v into the element at p with the declared operator; see
// ReducerF64.Fold.
func (r *ReducerI64) Fold(p domain.Point, v int64) {
	r.buf = append(r.buf, region.Fold[int64]{Off: r.acc.Offset(p), V: v})
}

// ReducerF64 is a fold-only view of a float64 field: tasks holding Reduce
// privilege may only combine values with the declared operator, never read
// or overwrite them. Folds are buffered until task completion.
type ReducerF64 struct {
	acc region.AccF64
	id  privilege.OpID
	op  privilege.ReductionOp
	buf []region.Fold[float64]
}

// Fold combines v into the element at p with the declared operator. The
// point is resolved to its storage offset now, so a point outside the
// region tree panics here and fails the task, as Get and Set do; a point
// inside the tree but outside the requested subregion is not checked.
func (r *ReducerF64) Fold(p domain.Point, v float64) {
	r.buf = append(r.buf, region.Fold[float64]{Off: r.acc.Offset(p), V: v})
}

// flushReductions applies every reducer's pending folds under the runtime's
// reduceMu.
func (c *Context) flushReductions() {
	if len(c.reducers) == 0 && len(c.reducersI64) == 0 {
		return
	}
	c.rt.reduceMu.Lock()
	for _, r := range c.reducers {
		r.acc.ReduceAll(r.id, r.op, r.buf)
	}
	for _, r := range c.reducersI64 {
		r.acc.ReduceAll(r.id, r.op, r.buf)
	}
	c.rt.reduceMu.Unlock()
}

// maxFolds caps the fold buffer a view keeps across attempts: one that grew
// past it (a task folding unusually many elements) is dropped rather than
// pinned by the drainer.
const maxFolds = 1 << 12

func truncFolds[T any](buf []T) []T {
	if cap(buf) > maxFolds {
		return nil
	}
	return buf[:0]
}
