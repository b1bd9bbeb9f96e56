// Chaos transport: an index-launch program producing fault-free results
// while the centralized distribution path loses, duplicates, reorders and
// delays its slice messages — and an interior broadcast-tree node dies.
//
// On the non-DCR path node 0 ships slices over an O(log N) broadcast tree
// (internal/xport). A seeded ChaosPlan perturbs every link: 15% of
// transmissions are dropped, 25% duplicated, 30% reordered, and the 0→2
// link suffers a transient partition. A seeded FaultInjector additionally
// kills node 1 — an interior relay with two children — mid-run, forcing
// the transport to re-parent the orphaned subtree onto surviving
// ancestors. Ack/timeout retransmission and sequence-numbered dedup make
// all of it invisible to the program: the final field contents are
// byte-identical to a fault-free run.
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"log"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/xport"
)

func main() {
	// Every chaos decision is a pure hash of (seed, link, sequence,
	// attempt): re-running this program replays the same drops, the same
	// duplicates, the same partition window.
	plan := &xport.ChaosPlan{
		Seed: 42, Drop: 0.15, Dup: 0.25, Reorder: 0.3,
		DelayMax: 100 * time.Microsecond,
		// Link 0→2 goes dark for transmissions 1..3 of its lifetime;
		// retransmissions advance the counter, so the outage heals.
		Partitions: []xport.Partition{{A: 0, B: 2, AfterSends: 1, Sends: 3}},
	}

	// Node 1 relays to children 3 and 4. Killing it after 20 issued points
	// — mid-way through the second launch — re-parents both onto node 0.
	injector := rt.NewFaultInjector(42).KillNode(1, 20)

	// The runtime ships through the transport it is handed: an in-process
	// broadcast tree over 8 nodes, every link under the plan.
	transport, err := xport.New(8, xport.Options{
		Chaos: plan,
		// Short ack timeouts keep the demo snappy; dropped hops re-send
		// after 200µs instead of the default 1ms.
		Retransmit: xport.RetransmitPolicy{
			Timeout:    200 * time.Microsecond,
			MaxBackoff: 2 * time.Millisecond,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer transport.Close()
	runtime := rt.MustNew(rt.Config{
		Nodes: 8, ProcsPerNode: 2, IndexLaunches: true,
		Transport: transport,
		Fault:     injector,
	})

	const fieldVal region.FieldID = 0
	fields := region.MustFieldSpace(region.Field{ID: fieldVal, Name: "val", Kind: region.F64})
	tree := region.MustNewTree("data", domain.Range1(0, 159), fields)
	blocks, err := tree.PartitionEqual(tree.Root(), "blocks", 16)
	if err != nil {
		log.Fatal(err)
	}

	inc := runtime.MustRegisterTask("inc", func(ctx *rt.Context) ([]byte, error) {
		acc, err := ctx.WriteF64(0, fieldVal)
		if err != nil {
			return nil, err
		}
		pr, _ := ctx.Region(0)
		pr.Region.Domain.Each(func(p domain.Point) bool {
			acc.Set(p, acc.Get(p)+1)
			return true
		})
		return nil, nil
	})

	// Four rounds of 16 point tasks. Each launch's slices ride the chaos
	// transport from node 0 to their destination nodes.
	for round := 0; round < 4; round++ {
		launch := core.MustForall("inc", inc, domain.Range1(0, 15), core.Requirement{
			Partition: blocks,
			Functor:   projection.Identity(1),
			Priv:      privilege.ReadWrite,
			Fields:    []region.FieldID{fieldVal},
		})
		if _, err := runtime.ExecuteIndex(launch); err != nil {
			log.Fatal(err)
		}
	}
	if err := runtime.FenceErr(); err != nil {
		log.Fatalf("launches failed: %v", err)
	}

	// The transport counters show the robustness machinery actually
	// engaged. (Exact counts vary run to run — whether an ack beats a
	// retransmit timer is a wall-clock race — but the delivered outcome
	// below never does.)
	stats := runtime.Stats()
	fmt.Printf("transport: sends=%d retransmits=%d drops=%d dedups=%d\n",
		stats.MsgSends, stats.MsgRetransmits, stats.MsgDrops, stats.MsgDedups)
	fmt.Printf("degradation: node failures=%d, subtree re-parents=%d, re-mapped points=%d\n",
		stats.NodeFailures, stats.Reparents, stats.Remapped)

	sum, err := region.SumF64(tree.Root(), fieldVal)
	if err != nil {
		log.Fatal(err)
	}
	// Every element incremented once per round — exactly the fault-free
	// answer, despite drops, duplicates, a partition and a dead relay.
	fmt.Printf("chaos-mode completion: sum=%.0f (want %d), %d tasks executed\n",
		sum, 4*160, stats.TasksExecuted)
}
