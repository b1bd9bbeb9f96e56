package lang

import (
	"fmt"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/region"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/safety"
)

// Binding connects a compiled plan to concrete runtime objects: tasks by
// name and partitions by name.
type Binding struct {
	RT    *rt.Runtime
	Tasks map[string]core.TaskID
	Parts map[string]*region.Partition
	// Fields optionally restricts the fields each named partition's
	// launches access; defaults to every field of the partition's tree.
	Fields map[string][]region.FieldID
}

// ExecStats counts what the interpreter actually did — which path of the
// generated branch each loop took.
type ExecStats struct {
	IndexLaunches   int64 // loops executed as index launches
	DynamicBranches int64 // dynamic checks evaluated
	TaskLoops       int64 // loops executed as individual launches
	SingleTasks     int64 // tasks issued individually (incl. task loops)
	CheckEvals      int64 // projection-functor evaluations in checks
}

// Exec runs the plan against the binding, waits for completion, and
// returns execution statistics. Errors returned by task bodies are
// surfaced after the fence.
func Exec(p *Plan, b *Binding) (ExecStats, error) {
	in := &interp{plan: p, b: b, env: map[string]int64{}}
	if err := in.ops(p.Ops); err != nil {
		return in.stats, err
	}
	b.RT.Fence()
	for _, wait := range in.waits {
		if err := wait(); err != nil {
			return in.stats, err
		}
	}
	return in.stats, nil
}

type interp struct {
	plan  *Plan
	b     *Binding
	env   map[string]int64
	stats ExecStats
	waits []func() error
}

func (in *interp) ops(ops []PlanOp) error {
	for _, op := range ops {
		switch o := op.(type) {
		case *OpVar:
			v, err := Eval(o.Decl.Init, in.env)
			if err != nil {
				return err
			}
			in.env[o.Decl.Name] = v
		case *OpSingleLaunch:
			if err := in.single(o.Stmt); err != nil {
				return err
			}
		case *OpControlLoop:
			if err := in.controlLoop(o); err != nil {
				return err
			}
		case *OpCandidateLoop:
			if err := in.candidateLoop(o); err != nil {
				return err
			}
		default:
			return fmt.Errorf("lang: unknown plan op %T", op)
		}
	}
	return nil
}

func (in *interp) controlLoop(o *OpControlLoop) error {
	lo, err := Eval(o.Loop.Lo, in.env)
	if err != nil {
		return err
	}
	hi, err := Eval(o.Loop.Hi, in.env)
	if err != nil {
		return err
	}
	saved, had := in.env[o.Loop.Var]
	for i := lo; i < hi; i++ {
		in.env[o.Loop.Var] = i
		if err := in.ops(o.Body); err != nil {
			return err
		}
	}
	if had {
		in.env[o.Loop.Var] = saved
	} else {
		delete(in.env, o.Loop.Var)
	}
	return nil
}

func (in *interp) candidateLoop(o *OpCandidateLoop) error {
	lo, err := Eval(o.Loop.Lo, in.env)
	if err != nil {
		return err
	}
	hi, err := Eval(o.Loop.Hi, in.env)
	if err != nil {
		return err
	}
	if hi <= lo {
		return nil
	}
	d := domain.Range1(lo, hi-1)

	for _, lp := range o.Launches {
		if err := in.launchPlan(o, lp, d); err != nil {
			return err
		}
	}
	return nil
}

func (in *interp) launchPlan(o *OpCandidateLoop, lp *LaunchPlan, d domain.Domain) error {
	task, ok := in.b.Tasks[lp.Stmt.Task]
	if !ok {
		return fmt.Errorf("lang: binding has no task %q", lp.Stmt.Task)
	}

	// Build requirements with concrete functors under the current env.
	reqs := make([]core.Requirement, len(lp.Args))
	for i, ap := range lp.Args {
		part, ok := in.b.Parts[ap.Partition]
		if !ok {
			return fmt.Errorf("lang: binding has no partition %q", ap.Partition)
		}
		reqs[i] = core.Requirement{
			Partition: part,
			Functor:   ap.Class.Functor(lp.Stmt.Args[i].Index, o.Loop.Var, in.env),
			Priv:      ap.Priv,
			RedOp:     ap.RedOp,
			Fields:    in.fieldsFor(ap.Partition, part),
		}
	}

	launch, err := core.Forall(lp.Stmt.Task, task, d, reqs...)
	if err != nil {
		return err
	}
	runAsIndex := false
	switch lp.Decision {
	case DecideTaskLoop:
		// Statically rejected: always the original loop.
	case DecideIndexLaunch:
		// Statically verified up to partition disjointness, which depends
		// on the binding.
		runAsIndex = in.disjointnessHolds(lp, reqs)
	case DecideDynamicBranch:
		// Listing 3: evaluate the dynamic check, then branch.
		in.stats.DynamicBranches++
		res := launch.Verify(safety.Options{})
		in.stats.CheckEvals += res.DynamicEvaluations
		runAsIndex = res.Safe
	}

	run := in.b.RT.ExecuteLoop // Listing 3's else-branch: the original loop
	if runAsIndex {
		run = in.b.RT.ExecuteIndex
		in.stats.IndexLaunches++
	} else {
		in.stats.TaskLoops++
		in.stats.SingleTasks += d.Volume()
	}
	fm, err := run(launch)
	if err != nil {
		return err
	}
	in.waits = append(in.waits, fm.Wait)
	return nil
}

// disjointnessHolds applies the bind-time part of the static verdict: every
// write argument's partition must be disjoint.
func (in *interp) disjointnessHolds(lp *LaunchPlan, reqs []core.Requirement) bool {
	for i, ap := range lp.Args {
		if ap.Priv.IsWrite() && ap.Priv != privilege.Reduce && !reqs[i].Partition.Disjoint() {
			return false
		}
	}
	return true
}

func (in *interp) fieldsFor(name string, part *region.Partition) []region.FieldID {
	if fs, ok := in.b.Fields[name]; ok {
		return fs
	}
	all := part.Parent.Tree.Fields.Fields()
	out := make([]region.FieldID, len(all))
	for i, f := range all {
		out[i] = f.ID
	}
	return out
}

func (in *interp) single(ls *LaunchStmt) error {
	task, ok := in.b.Tasks[ls.Task]
	if !ok {
		return fmt.Errorf("lang: binding has no task %q", ls.Task)
	}
	access := in.plan.Checked.Access[ls.Task]
	singles := make([]rt.SingleReq, len(ls.Args))
	for i, a := range ls.Args {
		part, ok := in.b.Parts[a.Partition]
		if !ok {
			return fmt.Errorf("lang: binding has no partition %q", a.Partition)
		}
		idx, err := Eval(a.Index, in.env)
		if err != nil {
			return err
		}
		sub, err := part.Subregion(domain.Pt1(idx))
		if err != nil {
			return err
		}
		singles[i] = rt.SingleReq{
			Region: sub, Priv: access[i].Priv, RedOp: access[i].RedOp,
			Fields: in.fieldsFor(a.Partition, part),
		}
	}
	fut, err := in.b.RT.ExecuteSingle(ls.Task, task, singles, nil)
	if err != nil {
		return err
	}
	in.waits = append(in.waits, func() error {
		_, err := fut.Get()
		return err
	})
	in.stats.SingleTasks++
	return nil
}
