package netsim_test

import (
	"slices"
	"testing"

	"sldf/internal/engine"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// liveness is every router's and link's RouterAlive/LinkAlive answer.
type liveness struct {
	routers, links []bool
}

func livenessOf(net *netsim.Network) liveness {
	lv := liveness{make([]bool, len(net.Routers)), make([]bool, len(net.Links))}
	for i := range net.Routers {
		lv.routers[i] = net.RouterAlive(netsim.NodeID(i))
	}
	for i := range net.Links {
		lv.links[i] = net.LinkAlive(int32(i))
	}
	return lv
}

// checkLiveness asserts the invariant the flow trace relies on (a link is
// down whenever either endpoint router is) and that DisabledCounts counts
// exactly the components the accessors report down.
func checkLiveness(t *testing.T, net *netsim.Network, when string) liveness {
	t.Helper()
	lv := livenessOf(net)
	deadR, deadL := 0, 0
	for _, alive := range lv.routers {
		if !alive {
			deadR++
		}
	}
	for i, l := range net.Links {
		if !lv.links[i] {
			deadL++
		}
		if lv.links[i] && (!lv.routers[l.Src] || !lv.routers[l.Dst]) {
			t.Fatalf("%s: link %d (%d→%d) alive with a dead endpoint router", when, l.ID, l.Src, l.Dst)
		}
	}
	if r, l := net.DisabledCounts(); r != deadR || l != deadL {
		t.Fatalf("%s: DisabledCounts = (%d, %d), accessors count (%d, %d)", when, r, l, deadR, deadL)
	}
	return lv
}

func sameLiveness(a, b liveness) bool {
	return slices.Equal(a.routers, b.routers) && slices.Equal(a.links, b.links)
}

// TestLivenessInvariantUnderChurn applies seeded random kill/repair batches
// to a small switch-less Dragonfly and a mesh C-group: router deaths and
// repairs, link deaths, repairs of a link while an endpoint router is still
// dead, and unmatched repairs. After every batch a link is down whenever
// either endpoint router is, DisabledCounts matches the accessors, and
// every Reset restores exactly the base state (the build-time faults).
func TestLivenessInvariantUnderChurn(t *testing.T) {
	classes := topology.DefaultLinkClasses(2, 1)
	opts := netsim.NetworkOptions{Seed: 5, Workers: 1}
	for name, build := range map[string]func() (*netsim.Network, error){
		"sw-less": func() (*netsim.Network, error) {
			s, err := topology.BuildSLDF(topology.SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 4, H: 3, G: 1}, classes, opts)
			if err != nil {
				return nil, err
			}
			return s.Net, nil
		},
		"mesh": func() (*netsim.Network, error) {
			g, err := topology.BuildMeshCGroup(3, 2, classes, opts)
			if err != nil {
				return nil, err
			}
			return g.Net, nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			net, err := build()
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			pristine := checkLiveness(t, net, "never faulted")
			for i, alive := range pristine.routers {
				if !alive {
					t.Fatalf("never-faulted network reports router %d dead", i)
				}
			}
			for i, alive := range pristine.links {
				if !alive {
					t.Fatalf("never-faulted network reports link %d dead", i)
				}
			}
			net.SetEngine(netsim.EngineActiveSet)

			rng := engine.NewRNGStream(0x11FE, 0)
			router := func() netsim.NodeID { return netsim.NodeID(rng.Intn(len(net.Routers))) }
			link := func() int32 { return int32(rng.Intn(len(net.Links))) }
			if err := net.ApplyFaults([]netsim.NodeID{router()}, []int32{link()}); err != nil {
				t.Fatal(err)
			}
			base := checkLiveness(t, net, "build-time faults")
			if err := net.ScheduleChurn(nil, netsim.DropInFlight); err != nil {
				t.Fatal(err)
			}
			var killed []netsim.NodeID // routers killed since the last Reset
			repairs := 0               // link repairs issued while an endpoint is dead
			diverged := 0              // Resets from a state other than the base
			for batch := 0; batch < 80; batch++ {
				var ev []netsim.TimedFault
				for k := 1 + rng.Intn(4); k > 0; k-- {
					switch rng.Intn(6) {
					case 0, 1:
						id := router()
						killed = append(killed, id)
						ev = append(ev, netsim.RouterFault(0, id, false))
					case 2:
						ev = append(ev, netsim.LinkFault(0, link(), false))
					case 3:
						// Repair a link next to a router killed earlier: a
						// matched repair of its endpoint's death while that
						// router may still be down.
						if len(killed) == 0 {
							continue
						}
						r := net.Router(killed[rng.Intn(len(killed))])
						if o := rng.Intn(len(net.OutPorts(r))); net.OutPorts(r)[o].Link >= 0 {
							ev = append(ev, netsim.LinkFault(0, net.OutPorts(r)[o].Link, true))
							if !net.RouterAlive(r.ID) {
								repairs++
							}
						}
					case 4:
						if len(killed) > 0 {
							ev = append(ev, netsim.RouterFault(0, killed[rng.Intn(len(killed))], true))
						}
					case 5:
						// Often unmatched: nothing killed this component.
						if rng.Intn(2) == 0 {
							ev = append(ev, netsim.RouterFault(0, router(), true))
						} else {
							ev = append(ev, netsim.LinkFault(0, link(), true))
						}
					}
				}
				if err := net.InjectChurn(ev); err != nil {
					t.Fatal(err)
				}
				lv := checkLiveness(t, net, "after a batch")
				if batch%20 == 19 {
					if !sameLiveness(lv, base) {
						diverged++
					}
					net.Reset()
					if !sameLiveness(checkLiveness(t, net, "after Reset"), base) {
						t.Fatalf("Reset after batch %d did not restore the base state", batch)
					}
					killed = killed[:0]
				}
			}
			if repairs == 0 || diverged == 0 {
				t.Fatalf("vacuous draw: %d link repairs next to a dead router, %d Resets away from the base", repairs, diverged)
			}
		})
	}
}
