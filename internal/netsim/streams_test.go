package netsim_test

import (
	"reflect"
	"testing"

	"sldf/internal/engine"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// valiantSLDF builds a small switch-less Dragonfly (nine W-groups of 16
// chips) with Valiant routing, whose source cores draw each packet's
// intermediate W-group from Packet.RouteRNG, stepped by two workers.
func valiantSLDF(t *testing.T) *netsim.Network {
	t.Helper()
	s, err := topology.BuildSLDF(topology.SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 4, H: 2, G: 0},
		topology.DefaultLinkClasses(routing.SLDFVCCount(routing.BaselineVC, routing.Valiant), 1),
		netsim.NetworkOptions{Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.NewSLDFRouter(s, routing.BaselineVC, routing.Valiant)
	if err != nil {
		t.Fatal(err)
	}
	r.Install(s.Net)
	return s.Net
}

// pointResult is one load point's statistics and every link's window flits.
type pointResult struct {
	stats netsim.Stats
	flits []int64
}

func resultOf(net *netsim.Network) pointResult {
	res := pointResult{stats: net.Snapshot(), flits: make([]int64, len(net.Links))}
	for i := range net.Links {
		res.flits[i] = net.WindowFlits(int32(i))
	}
	return res
}

// flowPoint resets net and solves one flow point on two workers.
func flowPoint(t *testing.T, net *netsim.Network) pointResult {
	t.Helper()
	net.Reset()
	net.SetEngine(netsim.EngineFlow)
	demands := sampledDemands(len(net.ChipNodes), 16, 0.3)
	if err := net.SolveFlow(netsim.FlowOptions{
		Demands:    func() []netsim.FlowDemand { return demands },
		PacketSize: 4, Warmup: 100, Measure: 200, Workers: 2,
	}); err != nil {
		t.Fatal(err)
	}
	return resultOf(net)
}

// cyclePoint resets net and runs one uniform-traffic point on engine kind:
// every source draws its injections and destinations from its router's
// stream, and Valiant routing its intermediate W-groups.
func cyclePoint(t *testing.T, net *netsim.Network, kind netsim.EngineKind) pointResult {
	t.Helper()
	net.Reset()
	net.SetEngine(kind)
	chips := len(net.ChipNodes)
	net.SetTraffic(netsim.GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
		if !rng.Bernoulli(0.08) {
			return -1
		}
		dst := int32(rng.Intn(chips - 1))
		if dst >= src {
			dst++
		}
		return dst
	}), 4, netsim.DstSameIndex)
	if err := net.Run(50); err != nil {
		t.Fatal(err)
	}
	net.StartMeasurement()
	if err := net.Run(150); err != nil {
		t.Fatal(err)
	}
	net.StopMeasurement()
	if _, err := net.Drain(20000); err != nil {
		t.Fatal(err)
	}
	return resultOf(net)
}

// sameResult fails unless got equals want bitwise.
func sameResult(t *testing.T, what string, got, want pointResult) {
	t.Helper()
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Fatalf("%s: stats differ\n got %+v\nwant %+v", what, got.stats, want.stats)
	}
	for i := range want.flits {
		if got.flits[i] != want.flits[i] {
			t.Fatalf("%s: link %d carried %d window flits, want %d", what, i, got.flits[i], want.flits[i])
		}
	}
}

// TestFlowNetworkDerivesNoStreams checks that a flow-only network never
// builds the router random streams or any other cycle state: three flow
// points with a Reset before each leave none, repeat bitwise, and a Reset
// withdraws the last point's window flits.
func TestFlowNetworkDerivesNoStreams(t *testing.T) {
	net := valiantSLDF(t)
	defer net.Close()
	first := flowPoint(t, net)
	carried := int64(0)
	for _, f := range first.flits {
		carried += f
	}
	if carried == 0 || first.stats.DeliveredPkts == 0 {
		t.Fatalf("flow point carried nothing: %+v", first.stats)
	}
	for i := 1; i < 3; i++ {
		sameResult(t, "repeated flow point", flowPoint(t, net), first)
	}
	if net.CycleStateBuilt() {
		t.Fatal("flow-only network built the router streams and cycle state")
	}
	net.Reset()
	for i := range net.Links {
		if f := net.WindowFlits(int32(i)); f != 0 {
			t.Fatalf("link %d reads %d window flits after Reset, want 0", i, f)
		}
	}
}

// TestStreamsAfterFlowPoints checks the router streams of a network whose
// cycle state is built only after flow points: on both cycle engines a
// Valiant point equals the same point on a fresh build bitwise, repeats
// bitwise after a Reset, and hands the window back to the flow solver
// unchanged. Run under -race it also checks that the streams exist before
// the two workers first draw from them.
func TestStreamsAfterFlowPoints(t *testing.T) {
	for _, kind := range []netsim.EngineKind{netsim.EngineActiveSet, netsim.EngineReference} {
		fresh := valiantSLDF(t)
		want := cyclePoint(t, fresh, kind)
		fresh.Close()
		if want.stats.WindowPkts == 0 || want.stats.Hops[netsim.HopGlobal] == 0 {
			t.Fatalf("%v: the point moved no inter-group traffic: %+v", kind, want.stats)
		}

		net := valiantSLDF(t)
		flow := flowPoint(t, net)
		flowPoint(t, net)
		sameResult(t, kind.String()+" after flow points", cyclePoint(t, net, kind), want)
		sameResult(t, kind.String()+" repeated after Reset", cyclePoint(t, net, kind), want)
		sameResult(t, kind.String()+" flow point after cycle points", flowPoint(t, net), flow)
		net.Close()
	}
}
