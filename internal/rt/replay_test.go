package rt

import (
	"fmt"
	"testing"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

// replayRuntime is a runtime with an increment over the first n of 4 blocks
// of a fresh 40-element line, issued as one index launch (bulk) or as one
// single-task launch per block (per-task): one replay unit, or n of them.
func replayRuntime(t *testing.T, bulk bool) (*Runtime, func(n int64) (*region.Tree, func() error)) {
	t.Helper()
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
	inc := r.MustRegisterTask("inc", incrementTask)
	return r, func(n int64) (*region.Tree, func() error) {
		tree, p := lineSetup(t, 40, 4)
		if !bulk {
			return tree, func() error {
				for i := range n {
					req := []SingleReq{{Region: p.MustSubregion(domain.Pt1(i)),
						Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal}}}
					if _, err := r.ExecuteSingle("inc", inc, req, nil); err != nil {
						return err
					}
				}
				return nil
			}
		}
		l := core.MustForall("inc", inc, domain.Range1(0, n-1), core.Requirement{
			Partition: p, Functor: projection.Identity(1),
			Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
		})
		return tree, func() error { _, err := r.ExecuteIndex(l); return err }
	}
}

func launchKind(bulk bool) string {
	if bulk {
		return "bulk"
	}
	return "per-task"
}

// Trace ids are per program: a pooled executor's next job must capture its
// own BeginTrace(1), not replay the previous job's template, and an episode
// a failed job left open, capture or replay, must not outlive the job.
func TestRecycleDropsReplayState(t *testing.T) {
	for _, bulk := range []bool{false, true} {
		t.Run(launchKind(bulk), func(t *testing.T) {
			r, shape := replayRuntime(t, bulk)
			defer r.Shutdown()
			episode := func(id uint64, issue func() error) {
				t.Helper()
				if err := r.BeginTrace(id); err != nil {
					t.Fatal(err)
				}
				if err := issue(); err != nil {
					t.Fatal(err)
				}
				if err := r.EndTrace(id); err != nil {
					t.Fatal(err)
				}
			}
			// Job A captures id 1 over four points.
			_, a := shape(4)
			episode(1, a)
			r.Fence()
			if err := r.Recycle(); err != nil {
				t.Fatal(err)
			}
			// Job B's id 1 has another shape: replaying A's template would
			// panic on the divergence, or end short of A's launches.
			treeB, b := shape(2)
			episode(1, b)
			episode(1, b)
			r.Fence()
			if sum, _ := region.SumF64(treeB.Root(), fieldVal); sum != 2*20 {
				t.Errorf("job B sum = %v, want 40", sum)
			}
			if st := r.Stats(); st.TraceCaptures != 2 || st.TraceReplays != 1 {
				t.Errorf("captures=%d replays=%d, want 2 and 1", st.TraceCaptures, st.TraceReplays)
			}
			// Job C fails mid-episode; job D starts clean.
			if err := r.BeginTrace(7); err != nil {
				t.Fatal(err)
			}
			if err := b(); err != nil {
				t.Fatal(err)
			}
			r.Fence()
			if err := r.Recycle(); err != nil {
				t.Fatal(err)
			}
			if err := r.BeginTrace(8); err != nil {
				t.Fatalf("an abandoned episode survived Recycle: %v", err)
			}
			if err := r.EndTrace(8); err != nil {
				t.Fatal(err)
			}
			// Job E fails mid-replay. The version map holds the replay's
			// terminal for everything it touches, so Recycle must fire it:
			// job F's launch over the same data finishes.
			treeE, e := shape(4)
			episode(9, e)
			if err := r.BeginTrace(9); err != nil {
				t.Fatal(err)
			}
			if err := e(); err != nil {
				t.Fatal(err)
			}
			r.Fence()
			if err := r.Recycle(); err != nil {
				t.Fatal(err)
			}
			if err := e(); err != nil {
				t.Fatal(err)
			}
			if err := r.FenceTimeout(2 * time.Second); err != nil {
				t.Fatalf("job F waited on the replay Recycle abandoned: %v", err)
			}
			if sum, _ := region.SumF64(treeE.Root(), fieldVal); sum != 3*40 {
				t.Errorf("job E/F sum = %v, want 120", sum)
			}
		})
	}
}

// EndTrace(id) must name the episode BeginTrace(id) opened, whatever the
// episode is doing; a mismatch is an error and discards the episode.
func TestEndTraceMismatchDiscardsEpisode(t *testing.T) {
	for _, bulk := range []bool{false, true} {
		for _, replay := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/replay=%v", launchKind(bulk), replay), func(t *testing.T) {
				r, shape := replayRuntime(t, bulk)
				defer r.Shutdown()
				tree, issue := shape(4)
				run := func(begin, end uint64) error {
					t.Helper()
					if err := r.BeginTrace(begin); err != nil {
						t.Fatal(err)
					}
					if err := issue(); err != nil {
						t.Fatal(err)
					}
					return r.EndTrace(end)
				}
				episodes := 1
				if replay {
					// Capture id 1 first, so the mismatched episode replays.
					if err := run(1, 1); err != nil {
						t.Fatal(err)
					}
					episodes++
				}
				before := r.Stats()
				if err := run(1, 2); err == nil {
					t.Fatal("EndTrace(2) closed the episode BeginTrace(1) opened")
				}
				// The episode is gone, nothing was stored or counted, and
				// id 2 names no template: it captures.
				if err := run(2, 2); err != nil {
					t.Fatalf("episode survived the mismatched EndTrace: %v", err)
				}
				episodes++
				after := r.Stats()
				if got := after.TraceCaptures - before.TraceCaptures; got != 1 {
					t.Errorf("captures rose by %d, want 1 (the id-2 episode)", got)
				}
				if after.TraceReplays != before.TraceReplays {
					t.Errorf("replays rose by %d, want 0", after.TraceReplays-before.TraceReplays)
				}
				r.Fence()
				if sum, _ := region.SumF64(tree.Root(), fieldVal); sum != float64(40*episodes) {
					t.Errorf("sum = %v, want %d", sum, 40*episodes)
				}
			})
		}
	}
}
