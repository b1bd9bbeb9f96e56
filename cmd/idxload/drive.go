package main

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// system is one set-up instance of a workload: the daemons of an HTTP
// workload, or the in-process runtime of an rt workload.
type system interface {
	// op runs client c's next closed-loop operation to completion and
	// returns the launch points it completed. errSystemDead means the system
	// under test is gone and no further op can succeed.
	op(c int, tr tracer) (points int64, err error)
	// scrape reads every layer counter the system exposes.
	scrape() (samples, error)
	// check verifies the outputs of everything run since set-up began.
	check() error
	// postMortem describes why the system died, for the report.
	postMortem() string
	// close stops the system and waits until every process has ended.
	close()
}

var errSystemDead = errors.New("system under test died")

// opSample is one completed op.
type opSample struct {
	end    int64 // completion, ns since the phase started
	lat    int64 // ns
	points int64
	// late marks the op in flight when a timed window ended: it is not
	// counted as attempted and has no say in latency, but the part of it
	// inside the window is throughput the system delivered.
	late bool
}

// phaseResult is what one closed-loop phase observed.
type phaseResult struct {
	samples   []opSample // successful ops, by completion time
	attempted int
	failed    int
	elapsed   time.Duration
	dead      bool
}

// drive runs w.Clients closed-loop clients against sys: each submits its
// next op only after the previous one completed. With count > 0 the phase is
// exactly count ops, split evenly; otherwise it lasts window and an op in
// flight at the end runs to completion but is not counted (unless it is the
// client's first: a window never reports zero ops). If the system
// dies, every op still scheduled is counted as failed: the rest of count, or
// the rest of the window at the rate seen so far.
func drive(sys system, w *workload, tr tracer, count int, window time.Duration) phaseResult {
	var (
		mu   sync.Mutex
		res  phaseResult
		dead atomic.Bool
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []opSample
			attempted, failed := 0, 0
			for i := 0; !dead.Load(); i++ {
				if count > 0 && i >= count/w.Clients {
					break
				}
				begin := time.Since(start)
				if count == 0 && begin >= window {
					break
				}
				points, err := sys.op(c, tr)
				end := time.Since(start)
				if count == 0 && end >= window && err == nil && attempted > 0 {
					local = append(local, opSample{end: int64(end), lat: int64(end - begin), points: points, late: true})
					break
				}
				attempted++
				switch {
				case errors.Is(err, errSystemDead):
					failed++
					dead.Store(true)
				case err != nil:
					failed++
				default:
					local = append(local, opSample{end: int64(end), lat: int64(end - begin), points: points})
				}
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].end < res.samples[j].end })
	if dead.Load() {
		res.dead = true
		remaining := 0
		if count > 0 {
			remaining = count - res.attempted
		} else if left := window - res.elapsed; left > 0 {
			rate := float64(res.attempted) / res.elapsed.Seconds()
			remaining = int(math.Ceil(rate * left.Seconds()))
		}
		res.attempted += remaining
		res.failed += remaining
	}
	return res
}

// windowSlices is how many equal slices a measured window is cut into;
// throughput and median latency are reported as the median over the slices,
// with quartiles, so one stall moves one slice and not the result.
const windowSlices = 5

// sliced returns per-slice throughput (points/s) and per-slice median latency
// (ms) over a timed window. An op's points are spread evenly over its own
// duration, so a slice boundary falling inside a long op (a 40 ms cluster job,
// a 20-timestep block) splits it instead of handing it whole to one side.
// Latency belongs to the slice the op completed in; a slice in which no op
// completed has no latency entry.
func (r phaseResult) sliced(window time.Duration) (pointsPerS, p50MS []float64) {
	per := int64(window) / windowSlices
	points := make([]float64, windowSlices)
	lats := make([][]float64, windowSlices)
	for _, s := range r.samples {
		begin := s.end - s.lat
		for i := range points {
			lo, hi := max(begin, int64(i)*per), min(s.end, int64(i+1)*per)
			if hi > lo {
				points[i] += float64(s.points) * float64(hi-lo) / float64(s.lat)
			}
		}
		if i := sliceOf(s.end, int64(window), windowSlices); i >= 0 && !s.late {
			lats[i] = append(lats[i], float64(s.lat)/1e6)
		}
	}
	for i := range points {
		pointsPerS = append(pointsPerS, points[i]/(float64(per)/1e9))
		if len(lats[i]) > 0 {
			p50MS = append(p50MS, median(lats[i]))
		}
	}
	return pointsPerS, p50MS
}

// latenciesMS returns every counted op's latency in ms, ascending.
func (r phaseResult) latenciesMS() []float64 {
	var out []float64
	for _, s := range r.samples {
		if !s.late {
			out = append(out, float64(s.lat)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}
