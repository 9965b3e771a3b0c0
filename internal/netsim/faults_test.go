package netsim

import (
	"reflect"
	"slices"
	"testing"

	"sldf/internal/engine"
)

// buildFaultRing constructs a ring of n core routers (each its own chip) with a
// clockwise-only routing function. There is no path diversity: tests pick
// traffic whose clockwise arcs avoid the faulted segment.
func buildFaultRing(t testing.TB, n int, opts NetworkOptions) *Network {
	t.Helper()
	spec := LinkSpec{Delay: 1, Width: 1, Class: HopShortReach, VCs: 1, BufFlits: 32}
	b := NewBuilder()
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddRouter(KindCore)
		b.Router(ids[i]).X = int16(i)
		b.AddTerminal(ids[i], int32(i), 0)
	}
	for i := 0; i < n; i++ {
		b.Connect(ids[i], ids[(i+1)%n], spec) // Out[1] = clockwise
	}
	net, err := b.Finalize(opts)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	net.SetRoute(func(net *Network, r *Router, p *Packet) (int, uint8) {
		if p.DstNode == r.ID {
			return int(r.EjectOut), 0
		}
		return 1, 0
	})
	return net
}

func TestApplyFaultsDisablesIncidentLinks(t *testing.T) {
	net := buildTwoNodeChip(t, NetworkOptions{Seed: 1, Workers: 1})
	defer net.Close()
	if r, l := net.DisabledCounts(); r != 0 || l != 0 {
		t.Fatalf("fresh network reports faults: DisabledCounts = (%d, %d)", r, l)
	}
	// Router 1 is one of chip 0's two terminals: disabling it must take its
	// two links (1→hub, hub→1) with it while chip 0 stays alive.
	if err := net.ApplyFaults([]NodeID{1}, nil); err != nil {
		t.Fatal(err)
	}
	if dead := net.DeadChips(); len(dead) != 0 {
		t.Fatalf("dead chips = %v, want none", dead)
	}
	if net.RouterAlive(1) {
		t.Fatal("router 1 not disabled")
	}
	for i, l := range net.Links {
		incident := l.Src == 1 || l.Dst == 1
		if disabled := !net.LinkAlive(int32(i)); disabled != incident {
			t.Fatalf("link %d→%d disabled=%v, want %v", l.Src, l.Dst, disabled, incident)
		}
	}
	r, l := net.DisabledCounts()
	if r != 1 || l != 2 {
		t.Fatalf("DisabledCounts = (%d, %d), want (1, 2)", r, l)
	}
}

// TestApplyFaultsDeadChip checks that disabling a chip's only terminal
// drops the chip from the workload and reports it, leaving the caller to
// decide what a dead chip means.
func TestApplyFaultsDeadChip(t *testing.T) {
	net := buildFaultRing(t, 4, NetworkOptions{Seed: 1, Workers: 1})
	defer net.Close()
	if net.AliveChips() != nil {
		t.Fatal("pristine network has a liveness table")
	}
	if err := net.ApplyFaults([]NodeID{1}, nil); err != nil {
		t.Fatal(err)
	}
	if dead := net.DeadChips(); !reflect.DeepEqual(dead, []int32{1}) {
		t.Fatalf("dead chips = %v, want [1]", dead)
	}
	if alive := net.AliveChips(); !reflect.DeepEqual(alive, []bool{true, false, true, true}) {
		t.Fatalf("AliveChips = %v, want chip 1 dead", alive)
	}
	if net.ChipAlive(1) || len(net.ChipNodes[1]) != 0 {
		t.Fatalf("chip 1 still addressable: ChipNodes[1] = %v", net.ChipNodes[1])
	}
}

// TestApplyFaultsValidation checks that a rejected fault set changes
// nothing: the whole set is validated before any component is disabled.
func TestApplyFaultsValidation(t *testing.T) {
	net := buildFaultRing(t, 4, NetworkOptions{Seed: 1, Workers: 1})
	defer net.Close()
	if err := net.ApplyFaults([]NodeID{99}, nil); err == nil {
		t.Fatal("out-of-range router accepted")
	}
	if err := net.ApplyFaults(nil, []int32{-1}); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	if err := net.ApplyFaults([]NodeID{2}, []int32{-1}); err == nil {
		t.Fatal("valid router with out-of-range link accepted")
	}
	if r, l := net.DisabledCounts(); r != 0 || l != 0 {
		t.Fatalf("rejected fault sets left DisabledCounts = (%d, %d), want (0, 0)", r, l)
	}
	if !reflect.DeepEqual(net.ChipNodes[2], []NodeID{2}) {
		t.Fatalf("rejected fault set changed ChipNodes[2] to %v", net.ChipNodes[2])
	}
	if err := net.ScheduleChurn(nil, DropInFlight); err != nil {
		t.Fatal(err)
	}
	if err := net.InjectChurn([]TimedFault{RouterFault(0, 1, false)}); err != nil {
		t.Fatal(err)
	}
	r0, l0 := net.DisabledCounts()
	if err := net.ApplyFaults(nil, []int32{2}); err == nil {
		t.Fatal("ApplyFaults after an applied churn batch accepted")
	}
	if r, l := net.DisabledCounts(); r != r0 || l != l0 {
		t.Fatalf("rejected ApplyFaults changed DisabledCounts from (%d, %d) to (%d, %d)", r0, l0, r, l)
	}
	net.Step()
	if err := net.ApplyFaults(nil, nil); err == nil {
		t.Fatal("ApplyFaults after Step accepted")
	}
}

// TestApplyFaultsAfterScheduleChurnSurvivesReset checks that build-time
// faults applied after arming a timeline join the base state: Reset must
// not revive them.
func TestApplyFaultsAfterScheduleChurnSurvivesReset(t *testing.T) {
	net := buildChurnRing(t, 6, NetworkOptions{Seed: 1, Workers: 1})
	defer net.Close()
	if err := net.ScheduleChurn(nil, DropInFlight); err != nil {
		t.Fatal(err)
	}
	if err := net.ApplyFaults([]NodeID{net.ChipNodes[2][0]}, []int32{linkBetween(t, net, 4, 5)}); err != nil {
		t.Fatal(err)
	}
	if dead := net.DeadChips(); !reflect.DeepEqual(dead, []int32{2}) {
		t.Fatalf("dead chips = %v, want [2]", dead)
	}
	routers, links := net.DisabledCounts()
	chipNodes := make([][]NodeID, len(net.ChipNodes))
	for c, nodes := range net.ChipNodes {
		chipNodes[c] = append([]NodeID(nil), nodes...)
	}
	net.Reset()
	if r, l := net.DisabledCounts(); r != routers || l != links {
		t.Fatalf("Reset changed DisabledCounts from (%d, %d) to (%d, %d)", routers, links, r, l)
	}
	for c, nodes := range net.ChipNodes {
		if !slices.Equal(nodes, chipNodes[c]) {
			t.Fatalf("Reset changed ChipNodes[%d] from %v to %v", c, chipNodes[c], nodes)
		}
	}
}

// buildTwoNodeChip constructs chip 0 with two terminal routers (0, 1) and
// chip 1 with one terminal router (2), a star around router 2.
func buildTwoNodeChip(t testing.TB, opts NetworkOptions) *Network {
	t.Helper()
	spec := LinkSpec{Delay: 1, Width: 1, Class: HopShortReach, VCs: 1, BufFlits: 32}
	b := NewBuilder()
	a := b.AddRouter(KindCore)
	b.AddTerminal(a, 0, 0)
	c := b.AddRouter(KindCore)
	b.AddTerminal(c, 0, 1)
	hub := b.AddRouter(KindCore)
	b.AddTerminal(hub, 1, 0)
	b.ConnectBidi(a, hub, spec)
	b.ConnectBidi(c, hub, spec)
	net, err := b.Finalize(opts)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	net.SetRoute(func(net *Network, r *Router, p *Packet) (int, uint8) {
		if p.DstNode == r.ID {
			return int(r.EjectOut), 0
		}
		if r.ID != hub {
			return 1, 0 // only one real out port: to the hub
		}
		if p.DstNode == a {
			return 1, 0
		}
		return 2, 0
	})
	return net
}

// TestDisabledTerminalLeavesChipAddressable locks the terminal-side fault
// semantics: a disabled terminal router is dropped from the injector walk
// and from its chip's node table (remaining nodes re-indexed), so traffic
// to the chip lands on the surviving terminal under both engines.
func TestDisabledTerminalLeavesChipAddressable(t *testing.T) {
	for _, kind := range []EngineKind{EngineReference, EngineActiveSet} {
		net := buildTwoNodeChip(t, NetworkOptions{Seed: 7, Workers: 1})
		net.SetEngine(kind)
		if err := net.ApplyFaults([]NodeID{1}, nil); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got := len(net.ChipNodes[0]); got != 1 || net.ChipNodes[0][0] != 0 {
			t.Fatalf("%v: ChipNodes[0] = %v, want [0]", kind, net.ChipNodes[0])
		}
		if net.Routers[0].Local != 0 {
			t.Fatalf("%v: surviving node Local = %d, want 0", kind, net.Routers[0].Local)
		}
		// Every alive terminal sends one packet to the other chip; the
		// disabled terminal must stay silent.
		gen := GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
			if now == 0 {
				return 1 - src
			}
			return -1
		})
		net.SetTraffic(gen, 4, DstSameIndex)
		net.StartMeasurement()
		if err := net.Run(1); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if _, err := net.Drain(200); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		st := net.Snapshot()
		if st.InjectedPkts != 2 || st.DeliveredPkts != 2 {
			t.Fatalf("%v: injected/delivered = %d/%d, want 2/2 (disabled terminal must not inject)",
				kind, st.InjectedPkts, st.DeliveredPkts)
		}
		net.Close()
	}
}

// TestFaultedRunBothEngines runs a ring with a disabled link, no churn
// armed, checking bitwise-equal stats between the reference and active-set
// engines and that faults survive Reset. Traffic either keeps to alive arcs
// or crosses the dead link, where it must wait under both engines: a
// disabled link offers no bandwidth.
func TestFaultedRunBothEngines(t *testing.T) {
	cases := []struct {
		name     string
		src, dst int32
		stuck    bool // the clockwise path crosses the dead link 5→6
	}{
		{name: "alive-arcs", src: -1},
		{name: "dead-link", src: 4, dst: 7, stuck: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gen := GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
				switch {
				case now >= 5:
					return -1
				case tc.src < 0 && src < 4:
					return src + 1 // clockwise one step, never crossing link 5→6
				case src == tc.src:
					return tc.dst
				}
				return -1
			})
			measure := func(kind EngineKind, reset bool) Stats {
				net := buildFaultRing(t, 8, NetworkOptions{Seed: 3, Workers: 1})
				defer net.Close()
				net.SetEngine(kind)
				if err := net.ApplyFaults(nil, []int32{5}); err != nil {
					t.Fatal(err)
				}
				run := func() Stats {
					net.SetTraffic(gen, 4, DstSameIndex)
					net.StartMeasurement()
					if err := net.Run(5); err != nil {
						t.Fatal(err)
					}
					if _, err := net.Drain(300); (err != nil) != tc.stuck {
						t.Fatalf("Drain error %v, want stuck=%v", err, tc.stuck)
					}
					net.StopMeasurement()
					return net.Snapshot()
				}
				st := run()
				if reset {
					net.Reset()
					if net.LinkAlive(5) {
						t.Fatal("Reset cleared the fault")
					}
					st = run()
				}
				return st
			}
			ref := measure(EngineReference, false)
			act := measure(EngineActiveSet, false)
			actReset := measure(EngineActiveSet, true)
			if ref != act {
				t.Fatalf("stats diverged:\nreference: %+v\nactive:    %+v", ref, act)
			}
			if ref != actReset {
				t.Fatalf("stats diverged after reset:\nreference: %+v\nreset:     %+v", ref, actReset)
			}
			if ref.InjectedPkts == 0 {
				t.Fatal("no traffic injected; comparison vacuous")
			}
			if delivered := ref.DeliveredPkts != 0; delivered == tc.stuck {
				t.Fatalf("delivered %d of %d packets, want stuck=%v", ref.DeliveredPkts, ref.InjectedPkts, tc.stuck)
			}
		})
	}
}
