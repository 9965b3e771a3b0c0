package netsim_test

import (
	"testing"

	"sldf/internal/core"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// denseViewFaults is the build-time fault load of the faulted variants.
var denseViewFaults = topology.FaultSpec{Seed: 4, LinkFraction: 0.08, RouterFraction: 0.04}

// smallestConfig is each system kind at its smallest size: one W-group of
// the radix-16 Dragonflies, a 2×2-chiplet mesh and a 4-port switch.
func smallestConfig(t *testing.T, k core.SystemKind) core.Config {
	t.Helper()
	cfg := core.Config{Kind: k, Seed: 3, Workers: 1}
	switch k {
	case core.SwitchDragonfly:
		cfg.DF = core.Radix16DF()
		cfg.DF.G = 1
	case core.SwitchlessDragonfly:
		cfg.SLDF = core.Radix16SLDF()
		cfg.SLDF.G = 1
	case core.SingleSwitch:
		cfg.Terminals = 4
	case core.MeshCGroup:
		cfg.ChipletDim, cfg.NoCDim = 2, 2
	default:
		t.Fatalf("no smallest configuration for system kind %v", k)
	}
	return cfg
}

// TestDenseHopViews pins the dense data a traced hop reads instead of the
// Link records, on every system kind at its smallest size, pristine and
// with build-time faults: each out-port names the link it feeds and that
// link's destination router, exactly the ejection ports have no link, and
// the flow solver's element kinds reproduce every link's width, delay and
// hop class (ejection elements are width 1).
func TestDenseHopViews(t *testing.T) {
	for k := core.SystemKind(0); k.String() != "unknown"; k++ {
		for _, faulted := range []bool{false, true} {
			cfg := smallestConfig(t, k)
			name := k.String()
			if faulted {
				cfg.Faults = denseViewFaults
				name += "/faulted"
			}
			t.Run(name, func(t *testing.T) {
				sys, err := core.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				net := sys.Net
				if routers, links := net.DisabledCounts(); faulted && k != core.SingleSwitch && routers+links == 0 {
					t.Fatal("faulted build disabled nothing")
				}
				checkOutPorts(t, net)
				checkFlowKinds(t, net)
			})
		}
	}
}

func checkOutPorts(t *testing.T, net *netsim.Network) {
	t.Helper()
	for i := range net.Routers {
		r := &net.Routers[i]
		for o, op := range net.OutPorts(r) {
			if eject := o == int(r.EjectOut); eject != (op.Link < 0) {
				t.Fatalf("router %d port %d: link %d, ejection port %v", i, o, op.Link, eject)
			}
			if op.Link < 0 {
				if op.Dst != -1 {
					t.Fatalf("router %d ejection port %d names router %d", i, o, op.Dst)
				}
				continue
			}
			l := &net.Links[op.Link]
			if l.Src != r.ID || int(l.SrcPort) != o || l.Dst != op.Dst {
				t.Fatalf("router %d port %d = %+v, but link %d runs %d:%d -> %d", i, o, op, op.Link, l.Src, l.SrcPort, l.Dst)
			}
		}
	}
	for i := range net.Links {
		l := &net.Links[i]
		if op := net.OutPorts(&net.Routers[l.Src])[l.SrcPort]; op.Link != int32(i) {
			t.Fatalf("link %d leaves router %d port %d, which names link %d", i, l.Src, l.SrcPort, op.Link)
		}
	}
}

func checkFlowKinds(t *testing.T, net *netsim.Network) {
	t.Helper()
	width, delay, class, err := net.FlowElemKinds(4)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(net.Links) + len(net.Routers); len(width) != want {
		t.Fatalf("%d flow elements, want %d", len(width), want)
	}
	for i := range net.Links {
		l := net.LinkSpec(int32(i))
		if width[i] != l.Width || delay[i] != l.Delay || class[i] != l.Class || net.Links[i].Class != l.Class {
			t.Fatalf("link %d: kind gives width %d delay %d class %v, link has %d %d %v (class %v)",
				i, width[i], delay[i], class[i], l.Width, l.Delay, l.Class, net.Links[i].Class)
		}
	}
	for el := len(net.Links); el < len(width); el++ {
		if width[el] != 1 {
			t.Fatalf("ejection element %d has width %d, want 1", el, width[el])
		}
	}
}

// TestDirPortsMatchCoordinates pins the mesh port table of the kinds that
// have one, pristine and with build-time faults: each core's entry in a
// direction is its out-port to the core of the same C-group one step that
// way, and every other entry is -1.
func TestDirPortsMatchCoordinates(t *testing.T) {
	classes := topology.DefaultLinkClasses(2, 1)
	opts := netsim.NetworkOptions{Seed: 5, Workers: 1}
	params := core.Radix16SLDF()
	params.G = 1
	for _, faulted := range []bool{false, true} {
		s, err := topology.BuildSLDF(params, classes, opts)
		if err != nil {
			t.Fatal(err)
		}
		g, err := topology.BuildMeshCGroup(2, 2, classes, opts)
		if err != nil {
			t.Fatal(err)
		}
		if faulted {
			applyFaults(t, s.Net, s.FaultDomain(), s.FaultClosure)
			applyFaults(t, g.Net, g.FaultDomain(), g.FaultClosure)
		}
		checkDirPorts(t, s.Net, s.DirPort)
		checkDirPorts(t, g.Net, g.DirPort)
		s.Net.Close()
		g.Net.Close()
	}
}

func applyFaults(t *testing.T, net *netsim.Network, d topology.FaultDomain, closure func([]netsim.NodeID, []int32) []netsim.NodeID) {
	t.Helper()
	routers, links := denseViewFaults.Resolve(d)
	if len(routers)+len(links) == 0 {
		t.Fatal("fault spec sampled nothing")
	}
	if err := net.ApplyFaults(append(routers, closure(routers, links)...), links); err != nil {
		t.Fatal(err)
	}
}

func checkDirPorts(t *testing.T, net *netsim.Network, dp [][4]int32) {
	t.Helper()
	type place struct {
		w, c int32
		x, y int16
	}
	cores := map[place]netsim.NodeID{}
	for i := range net.Routers {
		if r := &net.Routers[i]; r.Kind == netsim.KindCore {
			cores[place{r.WGroup, r.CGroup, r.X, r.Y}] = r.ID
		}
	}
	if len(dp) != len(net.Routers) {
		t.Fatalf("DirPort has %d entries for %d routers", len(dp), len(net.Routers))
	}
	steps := [4][2]int16{topology.DirEast: {1, 0}, topology.DirWest: {-1, 0}, topology.DirNorth: {0, 1}, topology.DirSouth: {0, -1}}
	for i := range net.Routers {
		r := &net.Routers[i]
		for dir, step := range steps {
			want := int32(-1)
			if r.Kind == netsim.KindCore {
				if nb, ok := cores[place{r.WGroup, r.CGroup, r.X + step[0], r.Y + step[1]}]; ok {
					for o, op := range net.OutPorts(r) {
						if op.Link >= 0 && op.Dst == nb {
							want = int32(o)
						}
					}
					if want < 0 {
						t.Fatalf("core %d has no port to its neighbour %d", r.ID, nb)
					}
				}
			}
			if dp[i][dir] != want {
				t.Fatalf("router %d direction %d: DirPort %d, want %d", i, dir, dp[i][dir], want)
			}
		}
	}
}
