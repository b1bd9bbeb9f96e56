package rt

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
)

// Future is the eventual result of a single task: an opaque byte payload or
// an error. Futures are safe for concurrent use.
type Future struct {
	ev *Event
	// val and err are written once, before ev fires; readers load them only
	// after observing it fire.
	val []byte
	err error
}

func newFuture() *Future { return &Future{ev: NewEvent()} }

// complete records the task's result, at most once per future. A failure
// poisons the completion event so the error propagates along dependence
// edges.
func (f *Future) complete(val []byte, err error) {
	f.val, f.err = val, err
	f.ev.Poison(err)
}

// Event returns the future's completion event.
func (f *Future) Event() *Event { return f.ev }

// Get blocks until the task completes and returns its payload.
func (f *Future) Get() ([]byte, error) {
	f.ev.Wait()
	return f.val, f.err
}

// GetContext is Get bounded by a context, so a hung task cannot block the
// caller forever.
func (f *Future) GetContext(ctx context.Context) ([]byte, error) {
	if err := f.ev.WaitContext(ctx); err != nil && !f.ev.Done() {
		return nil, fmt.Errorf("rt: future: %w", err)
	}
	return f.Get()
}

// GetTimeout is Get with a deadline.
func (f *Future) GetTimeout(d time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return f.GetContext(ctx)
}

// GetF64 decodes the payload as a little-endian float64.
func (f *Future) GetF64() (float64, error) {
	b, err := f.Get()
	if err != nil {
		return 0, err
	}
	return decodeF64(b)
}

func decodeF64(b []byte) (float64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("rt: future payload is %d bytes, want 8", len(b))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// EncodeF64 renders v as a task result payload decodable by GetF64.
func EncodeF64(v float64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return b
}

// FutureMap is the result of an index launch and its completion group —
// the one thing a fence, a replay and the caller wait on. Points issue
// in domain order, so slot i holds point dom.PointAt(i)'s outcome and the
// map keeps no point list; a countdown of unfinished points fires one
// event, and a point's Future exists only once At asks for it.
type FutureMap struct {
	dom domain.Domain
	res []pointResult // res[i] is dom.PointAt(i)'s outcome
	// left counts the launch's unfinished points plus one for issuance, which
	// launchDone releases; done fires when it reaches zero.
	left atomic.Int64
	done *Event

	// The futures At handed out, by slot; watched tells settle to look there.
	mu      sync.Mutex
	futs    map[int]*Future
	watched atomic.Bool

	// spans is the launch's span record while the launch is traced: the
	// points' span timings, by slot, which the last release hands to prof.
	spans *obs.LaunchSpans
	prof  *obs.Recorder
}

// pointResult is one point's slot: its outcome, final once fin is set.
type pointResult struct {
	val []byte
	err error
	fin atomic.Bool
}

// newFutureMap sizes the map for a launch over d, every point counted
// unfinished until issuance releases the ones it did not issue.
func newFutureMap(d domain.Domain) *FutureMap {
	m := &FutureMap{dom: d, res: make([]pointResult, d.Volume()), done: NewEvent()}
	m.left.Store(d.Volume() + 1)
	return m
}

// point returns slot i's point.
func (m *FutureMap) point(i int) domain.Point { return m.dom.PointAt(int64(i)) }

// settle records slot i's outcome, completing a future At handed out for
// it. The slot stays counted in left until release.
func (m *FutureMap) settle(i int, val []byte, err error) {
	s := &m.res[i]
	s.val, s.err = val, err
	s.fin.Store(true)
	// At sets watched before it reads fin, settle sets fin before it reads
	// watched: one of the two sees the other, so no handed-out future misses
	// its completion.
	if m.watched.Load() {
		m.mu.Lock()
		if f := m.futs[i]; f != nil && !f.ev.Done() {
			f.complete(val, err)
		}
		m.mu.Unlock()
	}
}

// spanRow returns slot i's row of the launch's span record, or nil when the
// launch is untraced (or not an index launch: m is nil).
func (m *FutureMap) spanRow(i int) *obs.PointSpans {
	if m == nil || m.spans == nil {
		return nil
	}
	return &m.spans.Rows[i]
}

// release counts n settled points (or the issuance) finished. The last
// release records the launch's span record, if any — before done fires, so
// a fence followed by a snapshot sees every span — then fires done,
// poisoned with the points' errors joined in canonical order.
func (m *FutureMap) release(n int64) {
	if m.left.Add(-n) != 0 {
		return
	}
	if m.spans != nil {
		m.prof.RecordLaunch(m.spans)
	}
	m.done.Poison(m.errs())
}

// errs joins the points' errors in canonical order.
func (m *FutureMap) errs() error {
	var errs []error
	for i := range m.res {
		if err := m.res[i].err; err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// unfinished counts the points not yet settled and names the first of them.
func (m *FutureMap) unfinished() (n int, first domain.Point) {
	for i := range m.res {
		if !m.res[i].fin.Load() {
			if n == 0 {
				first = m.point(i)
			}
			n++
		}
	}
	return n, first
}

// At returns the future for launch point p. It completes when p does,
// independently of p's siblings.
func (m *FutureMap) At(p domain.Point) (*Future, error) {
	i := int(rankOf(m.dom, p))
	if i < 0 {
		return nil, fmt.Errorf("rt: future map has no point %v", p)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.futs == nil {
		m.futs = map[int]*Future{}
		m.watched.Store(true)
	}
	f := m.futs[i]
	if f == nil {
		f = newFuture()
		if s := &m.res[i]; s.fin.Load() {
			f.complete(s.val, s.err)
		}
		m.futs[i] = f
	}
	return f, nil
}

// Len returns the number of point tasks in the map.
func (m *FutureMap) Len() int { return len(m.res) }

// Event returns an event that triggers when every point task completes; it
// is poisoned if any task failed.
func (m *FutureMap) Event() *Event { return m.done }

// Wait blocks until every point task completes and returns the first error
// encountered (in canonical point order), if any.
func (m *FutureMap) Wait() error {
	m.done.Wait()
	for i := range m.res {
		if err := m.res[i].err; err != nil {
			return err
		}
	}
	return nil
}

// WaitErr blocks until every point task completes and returns the joined
// errors of every failed point, in canonical point order.
func (m *FutureMap) WaitErr() error {
	m.done.Wait()
	return m.errs()
}

// WaitTimeout is Wait with a deadline: if some point task has not completed
// within d, it returns an error naming the first unfinished point instead
// of blocking forever.
func (m *FutureMap) WaitTimeout(d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := m.done.WaitContext(ctx); err != nil && !m.done.Done() {
		if n, first := m.unfinished(); n > 0 {
			return fmt.Errorf("rt: future map: %w; %d point task(s) unfinished, first: point %v",
				err, n, first)
		}
	}
	return m.Wait()
}

// SumF64 waits for every point task and sums their float64 payloads — the
// common "future map reduction" idiom for residuals and diagnostics.
func (m *FutureMap) SumF64() (float64, error) {
	if err := m.Wait(); err != nil {
		return 0, err
	}
	var s float64
	for i := range m.res {
		v, err := decodeF64(m.res[i].val)
		if err != nil {
			return 0, err
		}
		s += v
	}
	return s, nil
}
