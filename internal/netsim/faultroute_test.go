package netsim_test

import (
	"reflect"
	"slices"
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
// Reset. At every segment — rebuilt or replayed from a solved-segment slot —
// each served route must equal a fresh trace under routing freshly built for
// that fault state. Exactly the segments that return to the base state while
// its solution is in a slot replay, and each replayed segment's flows,
// loads and latencies must equal a fresh solve of its state bit for bit. A revisited state
// must trace nothing, the replay must trace nothing at all, the cache must
// hold the base state's traces plus only the pairs each other state routes
// differently, and the warm result must equal a forced-cold solve and a
// solve without the replay check.
func TestFaultStateRoutingOracle(t *testing.T) {
	const size = 4
	// Segments 0, 2, 4 are the base state; 5 revisits segment 1's state.
	// With two slots, 2 and 4 find the base state's solution; segment 3's
	// new state evicts segment 1's, so 5 is rebuilt.
	wantReplayed := []int{2, 4}
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
			// All-to-all at a rate that congests most rigs, so the
			// replayed throttles are not all 1.
			chips := int32(net.NumChips())
			var all []netsim.FlowDemand
			for s := int32(0); s < chips; s++ {
				for d := int32(0); d < chips; d++ {
					if s != d {
						all = append(all, netsim.FlowDemand{Src: s, Dst: d, Rate: 0.05})
					}
				}
			}

			// segs records the current solve's segments in order: whether
			// the segment was replayed, the trace count after its routes
			// were served, and the pairs its state owns.
			type segment struct {
				replayed  bool
				traces    int64
				differing int
			}
			var segs []segment
			serve := func(replayed bool) []netsim.FlowDemand {
				live := all[:0:0]
				for _, d := range all {
					if net.ChipAlive(d.Src) && net.ChipAlive(d.Dst) {
						live = append(live, d)
					}
				}
				fresh, _, err := rig.build()
				if err != nil {
					t.Fatalf("segment %d: fresh routing: %v", len(segs), err)
				}
				own, err := net.CheckServedPaths(live, size, fresh)
				if err != nil {
					t.Fatalf("segment %d: %v", len(segs), err)
				}
				segs = append(segs, segment{replayed, net.FlowSolverStats().Traces, own})
				return live
			}
			demands := func() []netsim.FlowDemand { return serve(false) }
			// A replayed segment calls no Demands; the check serves its
			// demands (checking their routes) and solves them afresh.
			check := func() []netsim.FlowDemand { return serve(true) }
			net.CheckFlowReplays(check, size, func(err error) {
				if err != nil {
					t.Errorf("segment %d replay: %v", len(segs)-1, err)
				}
			})
			solve := func(cold bool) netsim.Stats {
				t.Helper()
				segs = segs[:0]
				before := net.FlowSolverStats()
				if err := net.SolveFlow(netsim.FlowOptions{Demands: demands, PacketSize: size,
					Warmup: 0, Measure: 600, Cold: cold}); err != nil {
					t.Fatal(err)
				}
				var replayed []int
				for k, s := range segs {
					if s.replayed {
						replayed = append(replayed, k)
					}
				}
				if len(segs) != 6 || !slices.Equal(replayed, wantReplayed) {
					t.Fatalf("%d segments, %v replayed; want 6, %v replayed", len(segs), replayed, wantReplayed)
				}
				after := net.FlowSolverStats()
				if d := after.Segments - before.Segments; d != 6 {
					t.Errorf("FlowStats.Segments grew by %d, want 6", d)
				}
				if d := after.Replays - before.Replays; d != int64(len(wantReplayed)) {
					t.Errorf("FlowStats.Replays grew by %d, want %d", d, len(wantReplayed))
				}
				st := net.Snapshot()
				net.Reset()
				return st
			}

			first := solve(false)
			for _, k := range []int{2, 4, 5} {
				if d := segs[k].traces - segs[k-1].traces; d != 0 {
					t.Errorf("segment %d revisits a fault state but traced %d pairs", k, d)
				}
			}
			if segs[0].traces == 0 || segs[1].traces == segs[0].traces || segs[3].traces == segs[2].traces {
				t.Errorf("a segment entering a new fault state traced nothing: %+v", segs)
			}
			if segs[0].differing != 0 || segs[2].differing != 0 || segs[4].differing != 0 {
				t.Errorf("base-state segments served state-owned entries: %+v", segs)
			}
			if segs[5].differing != segs[1].differing {
				t.Errorf("revisited state owns %d pairs, first visit %d", segs[5].differing, segs[1].differing)
			}
			ref, over := net.FlowTraceEntries()
			if want := segs[1].differing + segs[3].differing; over != want {
				t.Errorf("cache holds %d state-owned entries, want the %d differing pairs", over, want)
			}
			// A dead terminal re-pairs its chip's flows, so a state may
			// add pairs the base never routed: one reference slot each,
			// and already counted among the state's own entries.
			if int64(ref) < segs[0].traces || ref > int(segs[0].traces)+over {
				t.Errorf("reference layer holds %d entries, want the base state's %d traces plus at most %d new pairs",
					ref, segs[0].traces, over)
			}
			if 2*segs[1].differing >= int(segs[0].traces) {
				t.Errorf("dead-channel state owns %d of %d pairs: that is a copy, not a delta", segs[1].differing, segs[0].traces)
			}
			if states, built := net.FaultStates(); states != 3 || built != 3 {
				t.Errorf("%d fault states (%d built), want 3", states, built)
			}

			before := net.FlowSolverStats()
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
			// The check restores the solver as the replay left it, so a
			// solve without it reports the same window.
			net.CheckFlowReplays(nil, size, nil)
			if err := net.SolveFlow(netsim.FlowOptions{Demands: demands, PacketSize: size,
				Warmup: 0, Measure: 600}); err != nil {
				t.Fatal(err)
			}
			if plain := net.Snapshot(); !reflect.DeepEqual(first, plain) {
				t.Fatalf("solve without the replay check diverged:\nchecked: %+v\nplain:   %+v", first, plain)
			}
		})
	}
}
