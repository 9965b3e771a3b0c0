package netsim

import (
	"reflect"
	"testing"
	"unsafe"
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

// checkNoCycleState fails if any cycle-engine record exists: every queue,
// credit counter, pipeline, drain list and active set hangs off net.cyc,
// and the topology structs have no field left to hold one (see
// TestLeanTopologyLayout).
func checkNoCycleState(t *testing.T, net *Network) {
	t.Helper()
	if net.cyc != nil {
		t.Fatal("flow-only network built the cycle engines' state")
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
	if err := net.ApplyFaults(nil, []int32{linkBetween(t, net, 2, 3)}); err != nil {
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
			for o := range net.OutPorts(r) {
				if net.OutPorts(r)[o].Link < 0 {
					continue
				}
				spec := net.LinkSpec(net.OutPorts(r)[o].Link)
				for vc := uint8(0); vc < spec.VCs; vc++ {
					if got := net.FreeCredits(r.ID, o, vc); got != spec.BufFlits {
						t.Fatalf("%s: router %d port %d vc %d has %d free credits, want %d",
							when, i, o, vc, got, spec.BufFlits)
					}
				}
			}
		}
	}
	check("before first use")
	net.SetEngine(EngineReference)
	if net.cyc == nil {
		t.Fatal("SetEngine to a cycle engine did not allocate the cycle state")
	}
	check("after allocation")
}

// TestCycleStateFollowsBuildFaults checks that cycle state built late —
// after build-time faults, or after flow solves across an armed churn
// timeline and a Reset — gives the same run as a network that had it all
// along: dead components out of the injector walk and drain lists, full
// credits and the routers' RNG streams from the seed.
func TestCycleStateFollowsBuildFaults(t *testing.T) {
	// faultAndArm applies the build-time fault and arms the churn timeline.
	faultAndArm := func(net *Network) {
		if err := net.ApplyFaults(nil, []int32{linkBetween(t, net, 2, 3)}); err != nil {
			t.Fatal(err)
		}
		armChurnRing(t, net)
	}
	run := func(net *Network, kind EngineKind) Stats {
		t.Helper()
		defer net.Close()
		net.SetEngine(kind)
		net.SetTraffic(uniformGen(6, 0.05), 4, DstSameIndex)
		net.StartMeasurement()
		if err := net.Run(250); err != nil {
			t.Fatal(err)
		}
		return net.Snapshot()
	}
	build := func() *Network { return buildChurnRing(t, 6, NetworkOptions{Seed: 3, Workers: 2}) }
	for _, kind := range cycleEngines {
		t.Run(kind.String(), func(t *testing.T) {
			direct := build()
			faultAndArm(direct)
			want := run(direct, kind)
			if want.DeliveredPkts == 0 || want.RetriedPkts+want.DroppedPkts+want.RefusedPkts == 0 {
				t.Fatalf("scenario too quiet to compare: %+v", want)
			}

			early := build()
			early.SetEngine(kind)
			faultAndArm(early)

			flowFirst := build()
			flowFirst.SetEngine(EngineFlow)
			faultAndArm(flowFirst)
			solveChurnRing(t, flowFirst) // solves the whole timeline, then Resets
			checkNoCycleState(t, flowFirst)

			for name, got := range map[string]Stats{
				"built before the faults": run(early, kind),
				"built after flow solves": run(flowFirst, kind),
			} {
				if !reflect.DeepEqual(want, got) {
					t.Errorf("cycle state %s diverged:\nwant: %+v\ngot:  %+v", name, want, got)
				}
			}
		})
	}
}

// pointerFree reports whether values of type t hold no pointers the GC
// would have to scan.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return false
	}
	return true
}

// TestLeanTopologyLayout pins the flow-mode footprint of the topology
// structs and the flow solver's trace entry: every cycle-engine field, the
// router streams and the window counters included, lives in the cycle
// records, ports are windows of network-wide slabs, and links share their
// spec, so these sizes only grow if one creeps back. Link, OutPort and
// Router must stay pointer-free, which keeps the GC from scanning the
// router and link tables and the out-port slab, and keeps a route walk off
// the Link records.
func TestLeanTopologyLayout(t *testing.T) {
	for _, tc := range []struct {
		name      string
		size, max uintptr
	}{
		{"Link", unsafe.Sizeof(Link{}), 16},
		{"OutPort", unsafe.Sizeof(OutPort{}), 8},
		{"Router", unsafe.Sizeof(Router{}), 48},
		{"traceEntry", unsafe.Sizeof(traceEntry{}), 40},
	} {
		if tc.size > tc.max {
			t.Errorf("%s is %d bytes, want at most %d", tc.name, tc.size, tc.max)
		}
	}
	for _, v := range []any{Link{}, OutPort{}, Router{}} {
		if typ := reflect.TypeOf(v); !pointerFree(typ) {
			t.Errorf("%s holds a pointer", typ.Name())
		}
	}
	if pointerFree(reflect.TypeOf(linkCycle{})) {
		t.Error("pointerFree misses linkCycle's link pointer")
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
