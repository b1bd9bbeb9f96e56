package xport

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"
)

// The golden digests below pin every data and ack fate a fixed plan deals,
// both from ChaosPlan.Decide directly and as a WithChaos fabric applies it
// to an interleaved send sequence. A change to the salts, the hash or the
// fabric's attempt and partition-clock bookkeeping moves them; a chaos
// seed then replays a different fault schedule than it did before.

// goldenPlan has every fault axis on, plus one partition window on 0<->1.
func goldenPlan(delayMax time.Duration) *ChaosPlan {
	return &ChaosPlan{Seed: 20240806, Drop: 0.25, Dup: 0.2, Reorder: 0.15, DelayMax: delayMax,
		Partitions: []Partition{{A: 0, B: 1, AfterSends: 10, Sends: 12}}}
}

func TestChaosDecideGoldenFates(t *testing.T) {
	const want = "dbb90f446daf10ee"
	c := goldenPlan(time.Millisecond)
	h := fnv.New64a()
	for _, class := range []FrameClass{ClassData, ClassAck} {
		for _, lk := range []link{{0, 1}, {1, 0}, {2, 5}} {
			for seq := uint64(0); seq < 32; seq++ {
				for attempt := 1; attempt <= 3; attempt++ {
					n := int64(seq)*3 + int64(attempt)
					f := c.Decide(lk.src, lk.dst, class, seq, attempt, n)
					fmt.Fprintf(h, "%t %t %d;", f.Drop, f.Dup, f.Delay)
				}
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("Decide fate digest = %s, want %s: data or ack fates moved", got, want)
	}
}

// arrivals is a fabric counting how often each frame reaches it.
type arrivals struct {
	mu sync.Mutex
	n  map[*Frame]int
}

func (a *arrivals) Send(dst int, f *Frame) error {
	a.mu.Lock()
	a.n[f]++
	a.mu.Unlock()
	return nil
}
func (a *arrivals) SetReceiver(func(*Frame)) {}
func (a *arrivals) Peers() []PeerStatus      { return nil }
func (a *arrivals) Close() error             { return nil }

func TestChaosFabricGoldenFates(t *testing.T) {
	const want = "4c6075d25398722d"
	rec := &arrivals{n: map[*Frame]int{}}
	fab := WithChaos(rec, goldenPlan(200*time.Microsecond)).(*chaosFabric)
	// Node 0's outbound traffic over two generations: data to 1 and 2 with
	// up to three transmissions of each seq, an exec to 2, and acks to 1
	// (which share 0->1's partition clock with the data).
	var sent []*Frame
	send := func(dst int, kind Kind, gen, seq uint64) {
		f := &Frame{Kind: kind, Src: 0, Dst: dst, Gen: gen, Seq: seq}
		sent = append(sent, f)
		_ = fab.Send(dst, f)
	}
	for gen := uint64(1); gen <= 2; gen++ {
		for seq := uint64(0); seq < 24; seq++ {
			for attempt := uint64(0); attempt <= seq%3; attempt++ {
				send(1, KindData, gen, seq)
				send(2, KindData, gen, seq)
			}
			send(1, KindAck, gen, seq)
			if seq%4 == 0 {
				send(2, KindExec, gen, 100+seq/4)
			}
		}
	}
	fab.track.Wait()
	h := fnv.New64a()
	for _, f := range sent {
		fmt.Fprintf(h, "%d;", rec.n[f])
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("fabric fate digest = %s, want %s: data or ack fates moved", got, want)
	}
}
