package netsim_test

import (
	"reflect"
	"testing"

	"sldf/internal/engine"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// faultRig is one system kind built with fault-grade VCs and its
// fault-aware routing builder, the way core.Build wires a churn-armed
// system.
type faultRig struct {
	net    *netsim.Network
	build  netsim.FaultRouteBuilder
	domain topology.FaultDomain
	// nics lists failable terminal routers for kinds whose fault domain has
	// none (a dead NIC takes its chip out of the workload).
	nics []netsim.NodeID
}

const faultRigVCs = 8

func faultRigs(t *testing.T) map[string]func() faultRig {
	t.Helper()
	classes := topology.DefaultLinkClasses(faultRigVCs, 1)
	opts := netsim.NetworkOptions{Seed: 9, Workers: 1}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	nicsOf := func(net *netsim.Network) []netsim.NodeID {
		var ids []netsim.NodeID
		for i := range net.Routers {
			if net.Routers[i].Kind == netsim.KindNIC {
				ids = append(ids, net.Routers[i].ID)
			}
		}
		return ids
	}
	return map[string]func() faultRig{
		"sw-less": func() faultRig {
			s, err := topology.BuildSLDF(topology.SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 8, H: 5, G: 1}, classes, opts)
			must(err)
			return faultRig{net: s.Net, domain: s.FaultDomain(), build: func() (netsim.RouteFunc, func(*netsim.Router, *netsim.Packet) bool, error) {
				fr, err := routing.NewFaultSLDFRouter(s, routing.BaselineVC, routing.Minimal)
				if err != nil {
					return nil, nil, err
				}
				return fr.Func(), fr.Sanitize(), nil
			}}
		},
		"sw-based": func() faultRig {
			df, err := topology.BuildDragonfly(topology.DragonflyParams{P: 4, A: 8, H: 5, G: 1}, classes, opts)
			must(err)
			return faultRig{net: df.Net, domain: df.FaultDomain(), nics: nicsOf(df.Net), build: func() (netsim.RouteFunc, func(*netsim.Router, *netsim.Packet) bool, error) {
				fd, err := routing.NewFaultDragonflyRoute(df, routing.Minimal)
				if err != nil {
					return nil, nil, err
				}
				return fd.Func(), fd.Sanitize(), nil
			}}
		},
		"switch": func() faultRig {
			s, err := topology.BuildSingleSwitch(6, classes, opts)
			must(err)
			return faultRig{net: s.Net, domain: s.FaultDomain(), nics: s.NICs, build: func() (netsim.RouteFunc, func(*netsim.Router, *netsim.Packet) bool, error) {
				route, err := routing.NewFaultSwitchRoute(s)
				return route, nil, err
			}}
		},
		"mesh": func() faultRig {
			g, err := topology.BuildMeshCGroup(4, 2, classes, opts)
			must(err)
			return faultRig{net: g.Net, domain: g.FaultDomain(), build: func() (netsim.RouteFunc, func(*netsim.Router, *netsim.Packet) bool, error) {
				fm, err := routing.NewFaultMeshRouter(g)
				if err != nil {
					return nil, nil, err
				}
				return fm.Func(), fm.Sanitize(), nil
			}}
		},
	}
}

// timeline draws the rig's churn from seed: a channel dies at 100 and is
// repaired at 200 (back to the base state), a router dies at 300 and is
// repaired at 400, and the same channel dies again at 500 — a revisit of
// the first dead-channel state. Kinds with no failable channel (the single
// switch) kill a second router instead.
func (r faultRig) timeline(seed uint64) []netsim.TimedFault {
	rng := engine.NewRNGStream(seed, 0)
	routers := r.domain.Routers
	if len(routers) == 0 {
		routers = r.nics
	}
	victim := routers[rng.Intn(len(routers))]
	down := func(at int64, repair bool) []netsim.TimedFault {
		return []netsim.TimedFault{netsim.RouterFault(at, victim, repair)}
	}
	if len(r.domain.Channels) > 0 {
		ch := r.domain.Channels[rng.Intn(len(r.domain.Channels))]
		down = func(at int64, repair bool) []netsim.TimedFault {
			return []netsim.TimedFault{netsim.LinkFault(at, ch[0], repair), netsim.LinkFault(at, ch[1], repair)}
		}
	}
	other := routers[rng.Intn(len(routers))]
	for other == victim && len(routers) > 1 {
		other = routers[rng.Intn(len(routers))]
	}
	var ev []netsim.TimedFault
	ev = append(ev, down(100, false)...)
	ev = append(ev, down(200, true)...)
	ev = append(ev, netsim.RouterFault(300, other, false), netsim.RouterFault(400, other, true))
	ev = append(ev, down(500, false)...)
	return ev
}

// TestFaultStateRoutingOracle runs every system kind under EngineFlow with a
// seeded timeline (a channel death and its repair back to the base state, a
// router death and repair, the channel dying again), then replays it after
// Reset. At every solved segment each served route must equal a fresh trace
// under routing freshly built for that fault state. A revisited state must
// trace nothing, the replay must trace nothing at all, the cache must hold
// the base state's traces plus only the pairs each other state routes
// differently, and the warm result must equal a forced-cold solve.
func TestFaultStateRoutingOracle(t *testing.T) {
	const size = 4
	for name, mk := range faultRigs(t) {
		t.Run(name, func(t *testing.T) {
			rig := mk()
			net := rig.net
			defer net.Close()
			if err := net.SetFaultRouting(rig.build); err != nil {
				t.Fatal(err)
			}
			if err := net.ScheduleChurn(rig.timeline(3), netsim.RetrySource); err != nil {
				t.Fatal(err)
			}
			net.SetEngine(netsim.EngineFlow)
			chips := int32(net.NumChips())
			var all []netsim.FlowDemand
			for s := int32(0); s < chips; s++ {
				for d := int32(0); d < chips; d++ {
					if s != d {
						all = append(all, netsim.FlowDemand{Src: s, Dst: d, Rate: 0.01})
					}
				}
			}

			// traces[k] is the trace count after segment k's routes were
			// served; differing[k] the pairs segment k's state owns.
			var traces []int64
			var differing []int
			demands := func() []netsim.FlowDemand {
				live := all[:0:0]
				for _, d := range all {
					if net.ChipAlive(d.Src) && net.ChipAlive(d.Dst) {
						live = append(live, d)
					}
				}
				fresh, _, err := rig.build()
				if err != nil {
					t.Fatalf("segment %d: fresh routing: %v", len(traces), err)
				}
				own, err := net.CheckServedPaths(live, size, fresh)
				if err != nil {
					t.Fatalf("segment %d: %v", len(traces), err)
				}
				traces = append(traces, net.FlowSolverStats().Traces)
				differing = append(differing, own)
				return live
			}
			solve := func(cold bool) netsim.Stats {
				t.Helper()
				if err := net.SolveFlow(netsim.FlowOptions{Demands: demands, PacketSize: size,
					Warmup: 0, Measure: 600, Cold: cold}); err != nil {
					t.Fatal(err)
				}
				st := net.Snapshot()
				net.Reset()
				return st
			}

			first := solve(false)
			if len(traces) != 6 {
				t.Fatalf("%d segments solved, want 6", len(traces))
			}
			// Segments 0, 2, 4 are the base state; 5 revisits segment 1's.
			for _, k := range []int{2, 4, 5} {
				if d := traces[k] - traces[k-1]; d != 0 {
					t.Errorf("segment %d revisits a fault state but traced %d pairs", k, d)
				}
			}
			if traces[0] == 0 || traces[1] == traces[0] || traces[3] == traces[2] {
				t.Errorf("a segment entering a new fault state traced nothing: %v", traces)
			}
			if differing[0] != 0 || differing[2] != 0 || differing[4] != 0 {
				t.Errorf("base-state segments served state-owned entries: %v", differing)
			}
			if differing[5] != differing[1] {
				t.Errorf("revisited state owns %d pairs, first visit %d", differing[5], differing[1])
			}
			ref, over := net.FlowTraceEntries()
			if want := differing[1] + differing[3]; over != want {
				t.Errorf("cache holds %d state-owned entries, want the %d differing pairs", over, want)
			}
			// A dead terminal re-pairs its chip's flows, so a state may
			// add pairs the base never routed: one reference slot each,
			// and already counted among the state's own entries.
			if int64(ref) < traces[0] || ref > int(traces[0])+over {
				t.Errorf("reference layer holds %d entries, want the base state's %d traces plus at most %d new pairs",
					ref, traces[0], over)
			}
			if 2*differing[1] >= int(traces[0]) {
				t.Errorf("dead-channel state owns %d of %d pairs: that is a copy, not a delta", differing[1], traces[0])
			}
			if states, built := net.FaultStates(); states != 3 || built != 3 {
				t.Errorf("%d fault states (%d built), want 3", states, built)
			}

			before := net.FlowSolverStats()
			traces, differing = traces[:0], differing[:0]
			replay := solve(false)
			if d := net.FlowSolverStats().Traces - before.Traces; d != 0 {
				t.Errorf("replay after Reset traced %d pairs, want 0", d)
			}
			if d := net.FlowSolverStats().FullInvalidations - before.FullInvalidations; d != 0 {
				t.Errorf("replay after Reset discarded the cache %d times", d)
			}
			if !reflect.DeepEqual(first, replay) {
				t.Fatalf("replay diverged:\nfirst:  %+v\nreplay: %+v", first, replay)
			}
			if cold := solve(true); !reflect.DeepEqual(first, cold) {
				t.Fatalf("forced-cold solve diverged:\nwarm: %+v\ncold: %+v", first, cold)
			}
		})
	}
}
