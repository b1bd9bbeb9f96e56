package safety

import (
	"fmt"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

// Arg is one collection argument of a prospective index launch: the
// ⟨partition, projection functor⟩ pair plus the privilege the task declares
// and the fields it touches.
type Arg struct {
	Partition *region.Partition
	Functor   projection.Functor
	Priv      privilege.Privilege
	RedOp     privilege.OpID // meaningful only when Priv is Reduce
	// Fields restricts the access to specific fields; arguments with
	// disjoint field sets never interfere (a stencil reading `in` through
	// an aliased halo partition while writing `out` through tiles is
	// safe). An empty Fields means "all fields" and interferes with
	// everything on the same collection.
	Fields []region.FieldID
}

func fieldsOverlap(a, b Arg) bool {
	if len(a.Fields) == 0 || len(b.Fields) == 0 {
		return true
	}
	for _, fa := range a.Fields {
		for _, fb := range b.Fields {
			if fa == fb {
				return true
			}
		}
	}
	return false
}

// Method records how an argument's self-check was resolved.
type Method uint8

// Self-check resolution methods.
const (
	// MethodPrivilege: resolved by privilege alone (read or reduce).
	MethodPrivilege Method = iota
	// MethodStatic: resolved by the static functor classifier.
	MethodStatic
	// MethodDynamic: resolved by the dynamic bitmask check.
	MethodDynamic
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case MethodPrivilege:
		return "privilege"
	case MethodStatic:
		return "static"
	case MethodDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("method(%d)", uint8(m))
	}
}

// ArgReport describes how one argument's self-check was decided.
type ArgReport struct {
	Index  int
	Method Method
	Safe   bool
	Detail string
}

// Options tune the hybrid analysis.
type Options struct {
	// ForceDynamic skips the static classifier and runs every check
	// dynamically; used by benchmarks to time the dynamic path.
	ForceDynamic bool
}

// Result is the outcome of the hybrid safety analysis of one launch.
type Result struct {
	// Safe is true when every self-check and cross-check passed.
	Safe bool
	// Reason describes the first failure when Safe is false.
	Reason string
	// Args holds one report per argument.
	Args []ArgReport
	// DynamicEvaluations counts projection-functor evaluations performed
	// by dynamic checks (0 when everything resolved statically).
	DynamicEvaluations int64
	// CrossChecks counts partition groups that required a cross-check.
	CrossChecks int
}

// Analyze performs the full hybrid safety analysis of paper §3–§4 for an
// index launch over domain d with the given arguments. It applies, in order:
//
//  1. Per-argument self-checks — read/reduce privileges pass outright;
//     write privileges require a disjoint partition and an injective
//     functor, established statically when possible and dynamically
//     otherwise.
//  2. Cross-checks — for each pair of arguments, both-read / both-same-
//     reduction passes; distinct collections pass; a shared disjoint
//     partition triggers the linear-time multi-argument image-disjointness
//     check; anything else is conservatively unsafe.
func Analyze(d domain.Domain, args []Arg, opts Options) Result {
	res := Result{Safe: true}

	// Self-checks.
	for i, a := range args {
		rep := ArgReport{Index: i, Safe: true}
		switch {
		case !a.Priv.IsWrite():
			rep.Method = MethodPrivilege
			rep.Detail = a.Priv.String()
		case a.Priv == privilege.Reduce:
			// Reductions commute within a launch; self-check passes on
			// privilege, but the argument still participates in
			// cross-checks as a write.
			rep.Method = MethodPrivilege
			rep.Detail = "reduction"
		case !a.Partition.Disjoint():
			rep.Method = MethodStatic
			rep.Safe = false
			rep.Detail = fmt.Sprintf("write through aliased partition %s", a.Partition)
		default:
			rep = selfCheck(i, d, a, opts, &res)
		}
		res.Args = append(res.Args, rep)
		if !rep.Safe && res.Safe {
			res.Safe = false
			res.Reason = fmt.Sprintf("argument %d: %s", i, rep.Detail)
		}
	}
	if !res.Safe {
		return res
	}

	// Cross-checks: group arguments by partition, then by field (arguments
	// on disjoint fields cannot interfere); groups with at least one write
	// and more than one argument need the image-disjointness check.
	groups := map[*region.Partition][]int{}
	for i, a := range args {
		groups[a.Partition] = append(groups[a.Partition], i)
	}
	for part, idxs := range groups {
		if len(idxs) < 2 {
			continue
		}
		for _, cls := range fieldClasses(idxs, args) {
			if len(cls) < 2 {
				continue
			}
			if ok, reason := crossCheckGroup(d, part, cls, args, &res); !ok {
				res.Safe = false
				res.Reason = reason
				return res
			}
		}
	}

	// Arguments on different partitions: safe when the collections are
	// distinct trees (assumed disjoint collections) or neither writes; a
	// write against a different partition of the same collection cannot be
	// proven safe at partition granularity.
	for i := 0; i < len(args); i++ {
		for j := i + 1; j < len(args); j++ {
			ai, aj := args[i], args[j]
			if ai.Partition == aj.Partition {
				continue // handled by the group cross-check
			}
			if !privilege.Interferes(ai.Priv, ai.RedOp, aj.Priv, aj.RedOp) {
				continue
			}
			if ai.Partition.Parent.Tree != aj.Partition.Parent.Tree {
				continue // distinct collections are disjoint
			}
			if !fieldsOverlap(ai, aj) {
				continue // disjoint fields cannot interfere
			}
			res.Safe = false
			res.Reason = fmt.Sprintf(
				"arguments %d and %d interfere through different partitions (%s, %s) of collection %q",
				i, j, ai.Partition, aj.Partition, ai.Partition.Parent.Tree.Name)
			return res
		}
	}
	return res
}

func selfCheck(i int, d domain.Domain, a Arg, opts Options, res *Result) ArgReport {
	rep := ArgReport{Index: i, Safe: true}
	if !opts.ForceDynamic {
		switch projection.StaticInjective(a.Functor, d) {
		case projection.Injective:
			rep.Method = MethodStatic
			rep.Detail = fmt.Sprintf("functor %s statically injective", a.Functor.Name())
			return rep
		case projection.NotInjective:
			rep.Method = MethodStatic
			rep.Safe = false
			rep.Detail = fmt.Sprintf("functor %s statically non-injective over %v", a.Functor.Name(), d)
			return rep
		}
	}
	r := DynamicSelfCheck(d, a.Partition.ColorSpace.Bounds(), a.Functor)
	res.DynamicEvaluations += r.Evaluated
	rep.Method = MethodDynamic
	rep.Safe = r.Injective
	if !r.Injective {
		rep.Detail = fmt.Sprintf("functor %s dynamically non-injective over %v", a.Functor.Name(), d)
	} else {
		rep.Detail = fmt.Sprintf("functor %s dynamically injective (%d points)", a.Functor.Name(), r.Evaluated)
	}
	return rep
}

// fieldClasses partitions a same-partition argument group into classes of
// arguments whose field sets are transitively connected; arguments in
// different classes touch disjoint fields and need no mutual check.
func fieldClasses(idxs []int, args []Arg) [][]int {
	var classes [][]int
	for _, i := range idxs {
		placed := -1
		for ci := range classes {
			overlaps := false
			for _, j := range classes[ci] {
				if fieldsOverlap(args[i], args[j]) {
					overlaps = true
					break
				}
			}
			if !overlaps {
				continue
			}
			if placed == -1 {
				classes[ci] = append(classes[ci], i)
				placed = ci
			} else {
				// i bridges two classes: merge.
				classes[placed] = append(classes[placed], classes[ci]...)
				classes[ci] = nil
			}
		}
		if placed == -1 {
			classes = append(classes, []int{i})
		}
	}
	out := classes[:0]
	for _, c := range classes {
		if len(c) > 0 {
			out = append(out, c)
		}
	}
	return out
}

func crossCheckGroup(d domain.Domain, part *region.Partition, idxs []int, args []Arg, res *Result) (bool, string) {
	hasWrite := false
	var redOps []privilege.OpID
	for _, i := range idxs {
		if args[i].Priv.IsWrite() {
			hasWrite = true
		}
		if args[i].Priv == privilege.Reduce {
			redOps = append(redOps, args[i].RedOp)
		}
	}
	if !hasWrite {
		return true, "" // all reads: no cross interference possible
	}
	// All-same-operator reductions commute without an image check.
	if len(redOps) == len(idxs) {
		same := true
		for _, op := range redOps[1:] {
			if op != redOps[0] {
				same = false
			}
		}
		if same {
			return true, ""
		}
	}
	if !part.Disjoint() {
		return false, fmt.Sprintf("cross-check on aliased partition %s with writes", part)
	}
	cross := make([]CrossArg, 0, len(idxs))
	for _, i := range idxs {
		cross = append(cross, CrossArg{Functor: args[i].Functor, Writes: args[i].Priv.IsWrite()})
	}
	r := DynamicCrossCheck(d, part.ColorSpace.Bounds(), cross)
	res.DynamicEvaluations += r.Evaluated
	res.CrossChecks++
	if !r.Safe {
		return false, fmt.Sprintf("projection-functor images conflict on partition %s", part)
	}
	return true, ""
}
