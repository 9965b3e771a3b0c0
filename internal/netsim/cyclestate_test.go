package netsim

import (
	"reflect"
	"testing"
)

// solveChurnRing runs one flow window of the churn ring's two streams over
// the whole timeline and resets the network.
func solveChurnRing(t *testing.T, net *Network) {
	t.Helper()
	demands := []FlowDemand{{Src: 0, Dst: 2, Rate: 0.05}, {Src: 3, Dst: 5, Rate: 0.05}}
	if err := net.SolveFlow(FlowOptions{
		Demands:    func() []FlowDemand { return demands },
		PacketSize: 4, Warmup: 20, Measure: 200,
	}); err != nil {
		t.Fatalf("SolveFlow: %v", err)
	}
	net.Reset()
}

// checkNoCycleState fails if any cycle-engine-only state was allocated.
func checkNoCycleState(t *testing.T, net *Network) {
	t.Helper()
	if net.cycleState || net.dataLinks != nil || net.creditLinks != nil ||
		net.injectors != nil || net.active != nil {
		t.Fatal("flow-only network allocated the cycle engines' shard state")
	}
	for i := range net.Routers {
		r := &net.Routers[i]
		for in := range r.In {
			if r.In[in].VCs != nil {
				t.Fatalf("router %d in-port %d has VC queues", i, in)
			}
		}
		for o := range r.Out {
			if r.Out[o].Credits != nil {
				t.Fatalf("router %d out-port %d has credit counters", i, o)
			}
		}
	}
}

// TestFlowOnlyNetworkHasNoCycleState pins the lean flow build: build-time
// faults, flow solves across churn segments and Resets never allocate
// state that only the cycle engines read.
func TestFlowOnlyNetworkHasNoCycleState(t *testing.T) {
	net := buildChurnRing(t, 6, NetworkOptions{Seed: 7, Workers: 2})
	defer net.Close()
	net.SetEngine(EngineFlow)
	checkNoCycleState(t, net)
	if err := net.ApplyFaults(nil, []int32{linkBetween(t, net, 2, 3).ID}); err != nil {
		t.Fatal(err)
	}
	armChurnRing(t, net)
	for i := 0; i < 2; i++ {
		solveChurnRing(t, net)
	}
	if fs := net.FlowSolverStats(); fs.Segments < 2*5 {
		t.Fatalf("%d flow segments solved, want the timeline's five per solve", fs.Segments)
	}
	checkNoCycleState(t, net)
}

// TestFreeCreditsBeforeFirstUse checks that a network whose credit counters
// do not exist yet reports what an idle network has: every downstream
// buffer free. Adaptive routing's pre-allocate snapshot reads this under
// the flow engine.
func TestFreeCreditsBeforeFirstUse(t *testing.T) {
	net := buildChurnRing(t, 4, NetworkOptions{Seed: 1, Workers: 1})
	defer net.Close()
	check := func(when string) {
		t.Helper()
		for i := range net.Routers {
			r := &net.Routers[i]
			for o := range r.Out {
				op := &r.Out[o]
				if op.Link == nil {
					continue
				}
				for vc := uint8(0); vc < op.Link.VCs; vc++ {
					if got := op.FreeCredits(vc); got != op.Link.BufFlits {
						t.Fatalf("%s: router %d port %d vc %d has %d free credits, want %d",
							when, i, o, vc, got, op.Link.BufFlits)
					}
				}
			}
		}
	}
	check("before first use")
	net.SetEngine(EngineReference)
	if !net.cycleState {
		t.Fatal("SetEngine to a cycle engine did not allocate the cycle state")
	}
	check("after allocation")
}

// TestCycleStateFollowsBuildFaults checks that cycle state allocated after
// build-time faults leaves dead components out of the injector walk and
// the drain lists, exactly as if it had existed when the faults applied.
func TestCycleStateFollowsBuildFaults(t *testing.T) {
	run := func(early bool) Stats {
		net := buildFaultRing(t, 8, NetworkOptions{Seed: 3, Workers: 2})
		defer net.Close()
		if early {
			net.SetEngine(EngineReference)
		}
		if _, err := net.ApplyFaultsTolerant([]NodeID{net.ChipNodes[5][0]}, nil); err != nil {
			t.Fatal(err)
		}
		net.SetEngine(EngineReference)
		net.SetTraffic(uniformGen(8, 0.05), 4, DstSameIndex)
		net.StartMeasurement()
		if err := net.Run(250); err != nil {
			t.Fatal(err)
		}
		return net.Snapshot()
	}
	early, late := run(true), run(false)
	if early.DeliveredPkts == 0 {
		t.Fatal("no traffic delivered; the comparison is vacuous")
	}
	if !reflect.DeepEqual(early, late) {
		t.Fatalf("cycle state built after faults diverged:\nbefore: %+v\nafter:  %+v", early, late)
	}
}

// TestFinalizeAdoptsExactReservation pins the builder's exact-size path: a
// Grow that matches what was built hands the builder's own tables to the
// network, and any other reservation falls back to exact-size copies.
func TestFinalizeAdoptsExactReservation(t *testing.T) {
	spec := LinkSpec{Delay: 1, Width: 1, VCs: 1, BufFlits: 8}
	build := func(routers, links int) (*Network, *Router, *Link) {
		t.Helper()
		b := NewBuilder()
		if routers > 0 || links > 0 {
			b.Grow(routers, links)
		}
		for i := 0; i < 3; i++ {
			id := b.AddRouter(KindCore)
			b.AddTerminal(id, int32(i), 0)
		}
		b.ConnectBidi(0, 1, spec)
		b.ConnectBidi(1, 2, spec)
		r0, l0 := &b.routers[0], &b.links[0]
		net, err := b.Finalize(NetworkOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return net, r0, l0
	}
	for _, tc := range []struct {
		name           string
		routers, links int
		adopt          bool
	}{
		{"exact", 3, 4, true},
		{"over", 4, 6, false},
		{"under", 2, 2, false},
		{"none", 0, 0, false},
	} {
		net, r0, l0 := build(tc.routers, tc.links)
		adopted := &net.Routers[0] == r0 && &net.Links[0] == l0
		if adopted != tc.adopt {
			t.Errorf("%s reservation: adopted=%v, want %v", tc.name, adopted, tc.adopt)
		}
		if cap(net.Routers) != 3 || cap(net.Links) != 4 {
			t.Errorf("%s reservation: tables have capacity %d/%d, want exactly 3/4",
				tc.name, cap(net.Routers), cap(net.Links))
		}
		net.Close()
	}
}
