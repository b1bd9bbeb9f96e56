package bench

import (
	"fmt"
	"strings"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/safety"
)

// Table is a rendered timing table: one row per case, one column per launch
// domain size, entries in microseconds. Unlike the figures, tables report
// *real measured* times of this repository's dynamic-check implementation.
type Table struct {
	ID    string
	Title string
	Sizes []int64
	Rows  []TableRow
}

// TableRow is one measured case.
type TableRow struct {
	Label string
	// MicrosPerSize holds the elapsed microseconds per domain size.
	MicrosPerSize []float64
}

// Render prints the table in the paper's layout.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s (elapsed µs)\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-28s", "case")
	for _, s := range t.Sizes {
		fmt.Fprintf(&b, " %10.0e", float64(s))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-28s", r.Label)
		for _, v := range r.MicrosPerSize {
			fmt.Fprintf(&b, " %10.1f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table2Sizes are the launch-domain sizes of the paper's Tables 2 and 3.
var Table2Sizes = []int64{1e3, 1e4, 1e5, 1e6}

// Table2Functors are the paper's self-check cases: all are safe over
// [0, size) so the check never exits early.
func Table2Functors(size int64) []struct {
	Label   string
	Functor projection.Functor
} {
	return []struct {
		Label   string
		Functor projection.Functor
	}{
		{"Identity i", projection.Identity(1)},
		{"Linear a*i+b", projection.Affine1D(1, 3)},
		{"Modular (i+k) mod N", projection.Modular1D(1, 7, size)},
		{"Quadratic a*i^2+b*i+c", projection.Quadratic1D(1, 1, 1)},
	}
}

// measureWindows is how many timing windows measure takes; it reports the
// fastest, so a window slowed by GC or a busy machine does not skew a row.
const measureWindows = 3

// measure times fn with enough repetitions for a stable reading and returns
// the per-call elapsed time of the fastest of measureWindows windows.
func measure(fn func()) time.Duration {
	reps := 1
	var elapsed time.Duration
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		elapsed = time.Since(start)
		if elapsed > 10*time.Millisecond || reps >= 1<<20 {
			break
		}
		reps *= 4
	}
	for w := 1; w < measureWindows; w++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		elapsed = min(elapsed, time.Since(start))
	}
	return elapsed / time.Duration(reps)
}

// Table2SelfChecks measures the dynamic self-check (Listing 3) for the four
// functor shapes of the paper's Table 2. The launch domain size equals the
// number of sub-collections.
func Table2SelfChecks() Table {
	t := Table{ID: "Table2", Title: "dynamic self-checks for safe projection functors", Sizes: Table2Sizes}
	for fi := range Table2Functors(1) {
		row := TableRow{Label: Table2Functors(1)[fi].Label}
		for _, size := range t.Sizes {
			f := Table2Functors(size)[fi].Functor
			d := domain.Range1(0, size-1)
			bounds := domain.Rect1(0, size-1)
			el := measure(func() {
				r := safety.DynamicSelfCheck(d, bounds, f)
				if !r.Injective {
					panic("bench: Table 2 functor must be safe (no early exit)")
				}
			})
			row.MicrosPerSize = append(row.MicrosPerSize, float64(el.Nanoseconds())/1e3)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table3Args builds the paper's Table 3 argument sets: n arguments sharing
// one partition whose color space holds twice the launch-domain size — one
// write over the lower half, n-1 reads aliasing in the upper half, all
// safe.
func Table3Args(n int, size int64) []safety.CrossArg {
	args := make([]safety.CrossArg, 0, n)
	args = append(args, safety.CrossArg{Functor: projection.Identity(1), Writes: true})
	for i := 1; i < n; i++ {
		args = append(args, safety.CrossArg{Functor: projection.Affine1D(1, size), Writes: false})
	}
	return args
}

// Table3CrossChecks measures the linear-time multi-argument cross-check for
// 2–5 arguments on one shared partition (sub-collections = 2·|D|).
func Table3CrossChecks() Table {
	t := Table{ID: "Table3", Title: "dynamic cross-checks, multiple arguments on one partition", Sizes: Table2Sizes}
	for n := 2; n <= 5; n++ {
		row := TableRow{Label: fmt.Sprintf("%d arguments", n)}
		for _, size := range t.Sizes {
			d := domain.Range1(0, size-1)
			bounds := domain.Rect1(0, 2*size-1)
			args := Table3Args(n, size)
			el := measure(func() {
				r := safety.DynamicCrossCheck(d, bounds, args)
				if !r.Safe {
					panic("bench: Table 3 arguments must be safe")
				}
			})
			row.MicrosPerSize = append(row.MicrosPerSize, float64(el.Nanoseconds())/1e3)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Tables returns every table generator keyed by number.
func Tables() map[int]func() Table {
	return map[int]func() Table{
		2: Table2SelfChecks,
		3: Table3CrossChecks,
	}
}
