package netsim

import (
	"testing"

	"sldf/internal/engine"
)

// TestVCQueueCapacityReuse is the regression test for the ring's freed-slot
// reuse: a queue driven FIFO-style (push to tail, pop from head) must cycle
// through its fixed window indefinitely without growing — the old
// slice-compaction queue missed this case and reallocated once the tail
// reached capacity even though the head had freed slots. Order and occupancy
// accounting are pinned across many wraps.
func TestVCQueueCapacityReuse(t *testing.T) {
	q := vcQueue{buf: make([]PacketRef, 4)}
	base := &q.buf[0]
	next, expect := PacketRef(0), PacketRef(0)
	push := func(k int) {
		for i := 0; i < k; i++ {
			q.push(next, 3)
			next++
		}
	}
	pop := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if got := q.front(); got != expect {
				t.Fatalf("front = %d, want %d", got, expect)
			}
			if got := q.pop(3, nil); got != expect {
				t.Fatalf("pop = %d, want %d", got, expect)
			}
			expect++
		}
	}
	push(4)
	pop(2)
	push(2) // tail wraps into the two freed head slots
	pop(3)
	push(3)
	for i := 0; i < 32; i++ { // dozens of full wraps at various phases
		pop(1)
		push(1)
	}
	if q.occ != int32(3*q.size()) {
		t.Fatalf("occ %d with %d packets queued", q.occ, q.size())
	}
	pop(q.size())
	if q.occ != 0 || !q.empty() {
		t.Fatalf("drained queue: occ %d size %d", q.occ, q.size())
	}
	if len(q.buf) != 4 || &q.buf[0] != base {
		t.Fatal("FIFO-bounded queue grew instead of reusing freed capacity")
	}
}

// TestVCQueueGrowPreservesOrder pins that outgrowing the initial window
// migrates the queue to a private ring with FIFO order and occupancy intact,
// including when the ring is wrapped at growth time.
func TestVCQueueGrowPreservesOrder(t *testing.T) {
	q := vcQueue{buf: make([]PacketRef, 4)}
	for i := PacketRef(0); i < 2; i++ {
		q.push(i, 1)
	}
	q.pop(1, nil)
	q.pop(1, nil) // head now mid-window
	for i := PacketRef(2); i < 13; i++ {
		q.push(i, 1) // wraps, then grows twice
	}
	if q.size() != 11 || q.occ != 11 {
		t.Fatalf("size %d occ %d", q.size(), q.occ)
	}
	for i := PacketRef(2); i < 13; i++ {
		if got := q.pop(1, nil); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
}

// TestResetReclaimsArena pins the arena's leak-freedom across resets: after
// Reset, every allocated slot is back on a free list (packets that were
// still in flight included), and a build-once/measure-many loop reaches a
// steady state where the arena stops growing.
func TestResetReclaimsArena(t *testing.T) {
	net := buildRing(t, 8)
	defer net.Close()
	run := func() {
		net.SetTraffic(GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
			d := rng.Int31n(8)
			if d == src {
				return -1
			}
			return d
		}), 4, DstSameIndex)
		net.StartMeasurement()
		if err := net.Run(500); err != nil {
			t.Fatal(err)
		}
	}
	run() // stop mid-traffic: packets are in flight
	if alloc, free := net.ArenaSlots(); alloc == free {
		t.Fatal("expected in-flight packets before reset")
	}
	net.Reset()
	alloc, free := net.ArenaSlots()
	if alloc == 0 || alloc != free {
		t.Fatalf("after reset: %d allocated, %d free — in-flight slots leaked", alloc, free)
	}
	for i := 0; i < 5; i++ {
		run()
		net.Reset()
	}
	alloc2, free2 := net.ArenaSlots()
	if alloc2 != alloc {
		t.Fatalf("arena grew across identical reset cycles: %d -> %d slots", alloc, alloc2)
	}
	if free2 != alloc2 {
		t.Fatalf("after steady-state resets: %d allocated, %d free", alloc2, free2)
	}
}

// TestResetSteadyStateAllocs pins Reset's zero-allocation contract: once the
// network has been through one warm-up cycle, Reset reuses every buffer it
// touches (free lists, rings, active sets) and allocates nothing.
func TestResetSteadyStateAllocs(t *testing.T) {
	net := buildRing(t, 8)
	defer net.Close()
	traffic := func() {
		net.SetTraffic(GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
			d := rng.Int31n(8)
			if d == src {
				return -1
			}
			return d
		}), 4, DstSameIndex)
		if err := net.Run(200); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm up: grow arena, rings, free-list capacity
		traffic()
		net.Reset()
	}
	if n := testing.AllocsPerRun(10, net.Reset); n != 0 {
		t.Fatalf("Reset allocates %v times per run in steady state, want 0", n)
	}
}
