package routing

import (
	"errors"
	"fmt"
	"testing"

	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// errDeadChip rejects fault specs that kill a whole chip: the property
// tests below only exercise draws that keep every chip addressable.
var errDeadChip = errors.New("fault spec kills every terminal of a chip")

// applySpec resolves a fault spec against a domain and applies it,
// returning errDeadChip when a chip lost every terminal.
func applySpec(t *testing.T, net *netsim.Network, spec topology.FaultSpec, d topology.FaultDomain) error {
	t.Helper()
	routers, links := spec.Resolve(d)
	err := net.ApplyFaults(routers, links)
	if err == nil && len(net.DeadChips()) > 0 {
		err = errDeadChip
	}
	return err
}

// checkTraceAvoidsFaults walks every (source node, destination chip) pair
// (and every aux choice) through the routing function and fails if any hop
// uses a disabled link or touches a disabled router.
func checkTraceAvoidsFaults(t *testing.T, net *netsim.Network, route netsim.RouteFunc, aux func(src, dst int32) []int32) {
	t.Helper()
	chips := int32(net.NumChips())
	for srcChip := int32(0); srcChip < chips; srcChip++ {
		for _, srcNode := range net.ChipNodes[srcChip] {
			for dstChip := int32(0); dstChip < chips; dstChip++ {
				if dstChip == srcChip {
					continue
				}
				for _, dstNode := range net.ChipNodes[dstChip] {
					for _, a := range aux(srcChip, dstChip) {
						p := &netsim.Packet{
							SrcChip: srcChip, DstChip: dstChip,
							SrcNode: srcNode, DstNode: dstNode,
							Size: 4, Aux: a, Aux2: 1,
						}
						hops, err := TracePath(net, route, p, 4096)
						if err != nil {
							t.Fatalf("chip %d→%d (aux %d): %v", srcChip, dstChip, a, err)
						}
						for _, h := range hops {
							l := net.Links[h[0]]
							if !net.LinkAlive(l.ID) {
								t.Fatalf("chip %d→%d (aux %d): route crosses disabled link %d (%d→%d)",
									srcChip, dstChip, a, l.ID, l.Src, l.Dst)
							}
							if !net.RouterAlive(l.Src) || !net.RouterAlive(l.Dst) {
								t.Fatalf("chip %d→%d (aux %d): route touches a disabled router via link %d",
									srcChip, dstChip, a, l.ID)
							}
						}
					}
				}
			}
		}
	}
}

// faultSLDF builds a small 5-W-group switch-less Dragonfly with 8 VCs (the
// fault-mode provisioning) and the given faults applied.
func faultSLDF(t *testing.T, spec topology.FaultSpec) (*topology.SLDF, error) {
	t.Helper()
	p := topology.SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 2, H: 2}
	s, err := topology.BuildSLDF(p, topology.DefaultLinkClasses(8, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	if err := applySpec(t, s.Net, spec, s.FaultDomain()); err != nil {
		s.Net.Close()
		return nil, err
	}
	return s, nil
}

// TestFaultedSLDFProperties is the subsystem's central property test: for
// seeded random fault masks, fault-aware routing must deliver every packet
// between alive terminals without ever crossing a disabled component, and
// its channel dependency graph must stay acyclic (deadlock freedom). Specs
// that happen to kill a chip or partition the survivors must be rejected
// with the typed errors.
func TestFaultedSLDFProperties(t *testing.T) {
	feasible := 0
	for seed := uint64(1); seed <= 4; seed++ {
		for _, fractions := range [][2]float64{{0.08, 0}, {0, 0.08}, {0.15, 0.1}} {
			spec := topology.FaultSpec{Seed: seed, LinkFraction: fractions[0], RouterFraction: fractions[1]}
			for _, mode := range []Mode{Minimal, Valiant} {
				name := fmt.Sprintf("seed%d/links%.2f/routers%.2f/%s", seed, fractions[0], fractions[1], mode)
				s, err := faultSLDF(t, spec)
				if err != nil {
					if !errors.Is(err, errDeadChip) {
						t.Fatalf("%s: unexpected apply error: %v", name, err)
					}
					continue // spec kills a whole chiplet: correctly rejected
				}
				fr, err := NewFaultSLDFRouter(s, BaselineVC, mode)
				if err != nil {
					if !errors.Is(err, ErrPartitioned) && !errors.Is(err, ErrDegradedVCs) {
						t.Fatalf("%s: unexpected construction error: %v", name, err)
					}
					s.Net.Close()
					continue
				}
				feasible++
				// AuxChoices enumerates exactly the intermediates the router
				// may draw (minimal fallback included), so the trace covers
				// every producible path.
				aux := MinimalAux
				if mode == Valiant {
					aux = fr.AuxChoices
				}
				checkTraceAvoidsFaults(t, s.Net, fr.Func(), aux)
				g, err := BuildCDG(s.Net, fr.Func(), 8, aux)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if cyc, witness := g.HasCycle(); cyc {
					t.Fatalf("%s: channel dependency cycle %v", name, witness)
				}
				s.Net.Close()
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible faulted configuration was exercised; the test is vacuous")
	}
}

// TestFaultedSLDFPartitionRejected cuts every external channel of C-group
// (0,0); its chips survive but cannot reach the rest of the system, which
// must surface as the typed partition error.
func TestFaultedSLDFPartitionRejected(t *testing.T) {
	p := topology.SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 2, H: 2}
	s, err := topology.BuildSLDF(p, topology.DefaultLinkClasses(8, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	cg := &s.CGroups[0][0]
	var ports []netsim.NodeID
	for peer := range cg.LocalPorts {
		if peer != 0 {
			ports = append(ports, cg.LocalPorts[peer].Node)
		}
	}
	for j := range cg.GlobalPorts {
		ports = append(ports, cg.GlobalPorts[j].Node)
	}
	if err := s.Net.ApplyFaults(ports, nil); err != nil {
		t.Fatal(err)
	}
	_, err = NewFaultSLDFRouter(s, BaselineVC, Minimal)
	if err == nil {
		t.Fatal("partitioned network accepted")
	}
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("error %v does not wrap ErrPartitioned", err)
	}
	var pe *PartitionError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PartitionError", err)
	}
}

// TestFaultedSLDFModeRestrictions pins the unsupported combinations.
func TestFaultedSLDFModeRestrictions(t *testing.T) {
	s, err := faultSLDF(t, topology.FaultSpec{Seed: 1, LinkFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	if _, err := NewFaultSLDFRouter(s, ReducedVC, Minimal); err == nil {
		t.Fatal("reduced-VC scheme accepted under faults")
	}
	for _, mode := range []Mode{ValiantLower, Adaptive} {
		if _, err := NewFaultSLDFRouter(s, BaselineVC, mode); err == nil {
			t.Fatalf("mode %s accepted under faults", mode)
		}
	}
}

// TestFaultedMeshProperties checks the standalone mesh: seeded fault
// masks, all-pairs delivery avoiding disabled components, acyclic CDG on
// the single virtual channel.
func TestFaultedMeshProperties(t *testing.T) {
	feasible := 0
	for seed := uint64(1); seed <= 6; seed++ {
		g, err := topology.BuildMeshCGroup(4, 2, topology.DefaultLinkClasses(1, 1), opts())
		if err != nil {
			t.Fatal(err)
		}
		spec := topology.FaultSpec{Seed: seed, LinkFraction: 0.1, RouterFraction: 0.05}
		if err := applySpec(t, g.Net, spec, g.FaultDomain()); err != nil {
			if !errors.Is(err, errDeadChip) {
				t.Fatalf("seed %d: %v", seed, err)
			}
			g.Net.Close()
			continue
		}
		fm, err := NewFaultMeshRouter(g)
		if err != nil {
			if !errors.Is(err, ErrPartitioned) {
				t.Fatalf("seed %d: %v", seed, err)
			}
			g.Net.Close()
			continue
		}
		feasible++
		route := fm.Func()
		checkTraceAvoidsFaults(t, g.Net, route, MinimalAux)
		cdg, err := BuildCDG(g.Net, route, 1, MinimalAux)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cyc, witness := cdg.HasCycle(); cyc {
			t.Fatalf("seed %d: dependency cycle %v", seed, witness)
		}
		g.Net.Close()
	}
	if feasible == 0 {
		t.Fatal("no feasible faulted mesh was exercised")
	}
}

// TestFaultedMeshPartitionRejected splits a 2x2-chiplet mesh by cutting
// the full vertical boundary between its chiplet columns.
func TestFaultedMeshPartitionRejected(t *testing.T) {
	g, err := topology.BuildMeshCGroup(2, 2, topology.DefaultLinkClasses(1, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Net.Close()
	var cut []int32
	for _, l := range g.Net.Links {
		src, dst := g.Net.Router(l.Src), g.Net.Router(l.Dst)
		if (src.X == 1 && dst.X == 2) || (src.X == 2 && dst.X == 1) {
			cut = append(cut, l.ID)
		}
	}
	if err := g.Net.ApplyFaults(nil, cut); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFaultMeshRouter(g); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("want ErrPartitioned, got %v", err)
	}
}

// TestFaultedDragonflyProperties checks the switch-based baseline: seeded
// channel faults, all-pairs delivery avoiding disabled components, acyclic
// CDG under the hop-indexed VC ladder.
func TestFaultedDragonflyProperties(t *testing.T) {
	feasible := 0
	for seed := uint64(1); seed <= 6; seed++ {
		df, err := topology.BuildDragonfly(topology.DragonflyParams{P: 2, A: 2, H: 1},
			topology.DefaultLinkClasses(8, 1), opts())
		if err != nil {
			t.Fatal(err)
		}
		spec := topology.FaultSpec{Seed: seed, LinkFraction: 0.2}
		if err := applySpec(t, df.Net, spec, df.FaultDomain()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fd, err := NewFaultDragonflyRoute(df, Minimal)
		if err != nil {
			if !errors.Is(err, ErrPartitioned) && !errors.Is(err, ErrDegradedVCs) {
				t.Fatalf("seed %d: %v", seed, err)
			}
			df.Net.Close()
			continue
		}
		feasible++
		checkTraceAvoidsFaults(t, df.Net, fd.Func(), MinimalAux)
		cdg, err := BuildCDG(df.Net, fd.Func(), 8, MinimalAux)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cyc, witness := cdg.HasCycle(); cyc {
			t.Fatalf("seed %d: dependency cycle %v", seed, witness)
		}
		df.Net.Close()
	}
	if feasible == 0 {
		t.Fatal("no feasible faulted dragonfly was exercised")
	}
}

// TestFaultedDragonflyRestrictions pins minimal-only support and the
// partition error for a switch cut off by explicit faults.
func TestFaultedDragonflyRestrictions(t *testing.T) {
	df, err := topology.BuildDragonfly(topology.DragonflyParams{P: 2, A: 2, H: 1},
		topology.DefaultLinkClasses(8, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer df.Net.Close()
	if _, err := NewFaultDragonflyRoute(df, Valiant); err == nil {
		t.Fatal("valiant accepted under faults")
	}
	// Cut every inter-switch channel of switch (0,0): its chips survive the
	// netsim check but the switch graph partitions.
	var cut []int32
	sw := df.Switches[0][0]
	for _, l := range df.Net.Links {
		if (l.Src == sw || l.Dst == sw) &&
			df.Net.Router(l.Src).Kind == netsim.KindSwitch &&
			df.Net.Router(l.Dst).Kind == netsim.KindSwitch {
			cut = append(cut, l.ID)
		}
	}
	if err := df.Net.ApplyFaults(nil, cut); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFaultDragonflyRoute(df, Minimal); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("want ErrPartitioned, got %v", err)
	}
}

// TestFaultedSingleSwitch: the single switch has no redundancy, so its
// fault domain is empty and any explicit fault is a partition.
func TestFaultedSingleSwitch(t *testing.T) {
	s, err := topology.BuildSingleSwitch(4, topology.DefaultLinkClasses(1, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	if _, err := NewFaultSwitchRoute(s); err != nil {
		t.Fatalf("pristine switch rejected: %v", err)
	}
	if err := s.Net.ApplyFaults(nil, []int32{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFaultSwitchRoute(s); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("want ErrPartitioned, got %v", err)
	}
}
