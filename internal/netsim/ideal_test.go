package netsim

import (
	"testing"

	"sldf/internal/engine"
)

// buildStar builds one central router with n leaf terminals attached, the
// minimal topology where head-of-line blocking shows: leaves inject to
// random other leaves through the hub.
func buildStar(t testing.TB, n int, ideal bool, vcs uint8) (*Network, NodeID) {
	t.Helper()
	b := NewBuilder()
	hub := b.AddRouter(KindSwitch)
	b.Router(hub).Ideal = ideal
	spec := LinkSpec{Delay: 1, Width: 1, Class: HopLongLocal, VCs: vcs, BufFlits: 32}
	down := make([]int, n)
	for i := 0; i < n; i++ {
		leaf := b.AddRouter(KindNIC)
		b.Router(leaf).Chip = int32(i)
		b.AddTerminal(leaf, int32(i), 0)
		_, _ = b.ConnectBidi(leaf, hub, spec)
		down[i], _ = 0, 0
	}
	net, err := b.Finalize(NetworkOptions{Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Hub out port for chip c is port c (terminals added in order).
	net.SetRoute(func(net *Network, r *Router, p *Packet) (int, uint8) {
		if r.Kind == KindNIC {
			if r.Chip == p.DstChip {
				return int(r.EjectOut), 0
			}
			return 1, 0 // single uplink after the terminal pseudo-ports
		}
		return int(p.DstChip), 0
	})
	return net, hub
}

func starThroughput(t testing.TB, ideal bool) float64 {
	net, _ := buildStar(t, 8, ideal, 1)
	defer net.Close()
	net.SetTraffic(GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
		// Saturating uniform: one packet per 4 cycles per chip.
		if now%4 != 0 {
			return -1
		}
		d := rng.Int31n(8)
		if d == src {
			return -1
		}
		return d
	}), 4, DstSameIndex)
	if err := net.Run(300); err != nil {
		t.Fatal(err)
	}
	net.StartMeasurement()
	if err := net.Run(1200); err != nil {
		t.Fatal(err)
	}
	net.StopMeasurement()
	st := net.Snapshot()
	return st.Throughput()
}

func TestIdealSwitchBeatsHOLBlocking(t *testing.T) {
	blocked := starThroughput(t, false)
	ideal := starThroughput(t, true)
	// Input-queued FIFO saturates near the classic ~0.6-0.75 HOL limit;
	// the ideal switch must get close to 1 flit/cycle/chip.
	if blocked > 0.85 {
		t.Fatalf("non-ideal star throughput %v suspiciously high", blocked)
	}
	if ideal < 0.85 {
		t.Fatalf("ideal star throughput %v, want near 1", ideal)
	}
	if ideal <= blocked {
		t.Fatalf("ideal (%v) must beat input-queued (%v)", ideal, blocked)
	}
}

func TestIdealSwitchConservation(t *testing.T) {
	net, _ := buildStar(t, 6, true, 2)
	defer net.Close()
	const volume = 50
	sent := make([]int, 6)
	net.SetTraffic(GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
		if sent[src] >= volume {
			return -1
		}
		sent[src]++
		return (src + 1) % 6
	}), 4, DstSameIndex)
	net.StartMeasurement()
	if err := net.Run(600); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Drain(5000); err != nil {
		t.Fatal(err)
	}
	st := net.Snapshot()
	if st.InjectedPkts != 6*volume || st.DeliveredPkts != 6*volume {
		t.Fatalf("conservation violated: injected %d delivered %d want %d",
			st.InjectedPkts, st.DeliveredPkts, 6*volume)
	}
}

func TestIdealSwitchDeterministic(t *testing.T) {
	run := func() Stats {
		net, _ := buildStar(t, 8, true, 1)
		defer net.Close()
		net.SetTraffic(GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
			if rng.Bernoulli(0.2) {
				d := rng.Int31n(8)
				if d == src {
					return -1
				}
				return d
			}
			return -1
		}), 4, DstSameIndex)
		net.StartMeasurement()
		if err := net.Run(500); err != nil {
			t.Fatal(err)
		}
		return net.Snapshot()
	}
	a, b := run(), run()
	if a.InjectedPkts != b.InjectedPkts || a.Latency.Sum != b.Latency.Sum {
		t.Fatalf("ideal switch nondeterministic: %+v vs %+v", a, b)
	}
}

func TestVCQueueRemoveAt(t *testing.T) {
	var q vcQueue
	for i := PacketRef(1); i <= 5; i++ {
		q.push(i, 4)
	}
	if q.size() != 5 || q.occ != 20 {
		t.Fatalf("size %d occ %d", q.size(), q.occ)
	}
	ref := q.removeAt(2, 4, nil) // removes ref 3
	if ref != 3 {
		t.Fatalf("removed %d, want 3", ref)
	}
	if q.size() != 4 || q.occ != 16 {
		t.Fatalf("after remove: size %d occ %d", q.size(), q.occ)
	}
	// Remaining order must be 1,2,4,5.
	want := []PacketRef{1, 2, 4, 5}
	for i, w := range want {
		if q.at(i) != w {
			t.Fatalf("position %d: ref %d, want %d", i, q.at(i), w)
		}
	}
	// removeAt(0) behaves like pop.
	if q.removeAt(0, 4, nil) != 1 {
		t.Fatal("removeAt(0) did not pop head")
	}
}

func TestPacketFIFOGrowth(t *testing.T) {
	var f packetFIFO
	for i := 0; i < 100; i++ {
		f.push(PacketRef(i), int64(i))
	}
	if f.len() != 100 {
		t.Fatalf("len %d", f.len())
	}
	for i := 0; i < 100; i++ {
		ref, ok := f.popReady(1 << 40)
		if !ok || ref != PacketRef(i) {
			t.Fatalf("pop %d: ok=%v ref=%v", i, ok, ref)
		}
	}
	if _, ok := f.popReady(1 << 40); ok {
		t.Fatal("pop from empty FIFO succeeded")
	}
}

func TestPacketFIFOTimeGate(t *testing.T) {
	var f packetFIFO
	f.push(1, 10)
	if _, ok := f.popReady(9); ok {
		t.Fatal("packet delivered before its time")
	}
	if _, ok := f.popReady(10); !ok {
		t.Fatal("packet not delivered at its time")
	}
}

func TestCreditFIFO(t *testing.T) {
	var f creditFIFO
	for i := 0; i < 50; i++ {
		f.push(timedCredit{at: int64(i), flits: 4, vc: uint8(i % 3)})
	}
	for i := 0; i < 50; i++ {
		c, ok := f.popReady(100)
		if !ok || c.vc != uint8(i%3) {
			t.Fatalf("credit %d: %+v ok=%v", i, c, ok)
		}
	}
}
