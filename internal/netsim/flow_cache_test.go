package netsim

import (
	"reflect"
	"testing"
)

// ringDemands builds a fixed chip-level demand set on an n-chip ring.
func ringDemands(n int, rate float64) []FlowDemand {
	d := make([]FlowDemand, 0, n)
	for i := 0; i < n; i++ {
		d = append(d, FlowDemand{Src: int32(i), Dst: int32((i + 3) % n), Rate: rate})
	}
	return d
}

// solveFlowRing runs one SolveFlow window and returns the snapshot, leaving
// the network Reset for the next solve.
func solveFlowRing(t *testing.T, net *Network, demands []FlowDemand, opts FlowOptions) Stats {
	t.Helper()
	net.SetEngine(EngineFlow)
	opts.Demands = func() []FlowDemand { return demands }
	opts.PacketSize = 4
	if opts.Measure == 0 {
		opts.Warmup, opts.Measure = 100, 200
	}
	if err := net.SolveFlow(opts); err != nil {
		t.Fatalf("SolveFlow: %v", err)
	}
	st := net.Snapshot()
	net.Reset()
	return st
}

// TestFlowTraceCacheReuse pins the route-trace cache's core contract on a
// build-once/solve-many loop: the second identical solve traces nothing and
// serves every flow from the cache, a parallel solve and a forced-cold solve
// are bitwise identical to it, and SetRoute discards everything.
func TestFlowTraceCacheReuse(t *testing.T) {
	const n = 8
	net := buildRing(t, n)
	defer net.Close()
	demands := ringDemands(n, 0.05)

	first := solveFlowRing(t, net, demands, FlowOptions{})
	s1 := net.FlowSolverStats()
	if s1.Traces != int64(n) || s1.CacheHits != 0 {
		t.Fatalf("cold solve: %d traces, %d hits; want %d, 0", s1.Traces, s1.CacheHits, n)
	}

	warm := solveFlowRing(t, net, demands, FlowOptions{})
	s2 := net.FlowSolverStats()
	if d := s2.Traces - s1.Traces; d != 0 {
		t.Fatalf("warm solve re-traced %d pairs", d)
	}
	if d := s2.CacheHits - s1.CacheHits; d != int64(n) {
		t.Fatalf("warm solve hit cache %d times, want %d", d, n)
	}
	if !reflect.DeepEqual(first, warm) {
		t.Fatalf("warm solve diverged from cold:\ncold: %+v\nwarm: %+v", first, warm)
	}

	par := solveFlowRing(t, net, demands, FlowOptions{Workers: 4})
	if !reflect.DeepEqual(first, par) {
		t.Fatalf("parallel solve diverged from serial:\nserial:   %+v\nparallel: %+v", first, par)
	}

	cold := solveFlowRing(t, net, demands, FlowOptions{Cold: true})
	s4 := net.FlowSolverStats()
	if s4.FullInvalidations == s2.FullInvalidations {
		t.Fatal("Cold solve did not discard the cache")
	}
	if !reflect.DeepEqual(first, cold) {
		t.Fatalf("forced-cold solve diverged:\nfirst: %+v\ncold:  %+v", first, cold)
	}

	// Installing a routing function — even an identical one — must discard
	// every cached trace: the cache cannot see whether the new closure
	// routes differently.
	route := net.route
	net.SetRoute(route)
	before := net.FlowSolverStats()
	again := solveFlowRing(t, net, demands, FlowOptions{})
	after := net.FlowSolverStats()
	if d := after.Traces - before.Traces; d != int64(n) {
		t.Fatalf("solve after SetRoute traced %d pairs, want full re-trace of %d", d, n)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("post-SetRoute solve diverged:\nfirst: %+v\nagain: %+v", first, again)
	}
}

// TestFlowChurnSelectiveInvalidation pins per-state tracing under plain
// SetRoute routing on the adaptive bidirectional ring: killing the 1↔2
// channel mid-window enters a new fault state, which traces each of its
// pairs once — the stale clockwise 0→2 path must not survive the reroute —
// and evicts nothing. A replay of the timeline after Reset revisits both
// states and traces nothing. The post-kill detour is visible in the hop
// mix, and a parallel rerun of the same timeline is bitwise identical.
func TestFlowChurnSelectiveInvalidation(t *testing.T) {
	const n = 6
	build := func() *Network {
		net := buildChurnRing(t, n, NetworkOptions{Seed: 1, Workers: 1})
		net.SetEngine(EngineFlow)
		return net
	}
	// Chip 0→2 traces clockwise across links 0→1, 1→2; chip 3→5 traces
	// clockwise across 3→4, 4→5 and never touches the killed channel.
	demands := []FlowDemand{{Src: 0, Dst: 2, Rate: 0.05}, {Src: 3, Dst: 5, Rate: 0.05}}
	arm := func(net *Network) {
		fwd := linkBetween(t, net, 1, 2)
		rev := linkBetween(t, net, 2, 1)
		events := []TimedFault{LinkFault(100, fwd.ID, false), LinkFault(100, rev.ID, false)}
		if err := net.ScheduleChurn(events, DropInFlight, nil); err != nil {
			t.Fatal(err)
		}
	}
	solve := func(net *Network, workers int) Stats {
		t.Helper()
		if err := net.SolveFlow(FlowOptions{
			Demands:    func() []FlowDemand { return demands },
			PacketSize: 4, Warmup: 0, Measure: 200, Workers: workers,
		}); err != nil {
			t.Fatalf("SolveFlow: %v", err)
		}
		return net.Snapshot()
	}

	net := build()
	defer net.Close()
	arm(net)
	churned := solve(net, 0)
	fs := net.FlowSolverStats()
	if fs.Segments != 2 {
		t.Fatalf("%d segments solved, want 2 (event at cycle 100 splits the window)", fs.Segments)
	}
	if fs.Evicted != 0 {
		t.Fatalf("churn batch evicted %d entries, want 0: a new fault state gets its own traces", fs.Evicted)
	}
	if fs.Traces != 4 {
		t.Fatalf("%d traces, want 4: each of the two pairs once per fault state", fs.Traces)
	}
	if fs.CacheHits != 0 {
		t.Fatalf("%d cache hits, want 0: neither state was visited before", fs.CacheHits)
	}

	// Reset returns to the base state; the replay revisits both states and
	// serves every flow from their traces.
	net.Reset()
	if replay := solve(net, 0); !reflect.DeepEqual(churned, replay) {
		t.Fatalf("replay after Reset diverged:\nfirst:  %+v\nreplay: %+v", churned, replay)
	}
	rs := net.FlowSolverStats()
	if d := rs.Traces - fs.Traces; d != 0 {
		t.Fatalf("replay after Reset traced %d pairs, want 0", d)
	}
	if d := rs.CacheHits - fs.CacheHits; d != 4 {
		t.Fatalf("replay after Reset hit the cache %d times, want 4", d)
	}
	if rs.FullInvalidations != fs.FullInvalidations {
		t.Fatal("Reset discarded the cached traces")
	}

	// The reroute is observable: a churn-free window delivers every packet
	// over 2-hop clockwise paths, the churned window's second segment must
	// carry 0→2 over the 4-hop counterclockwise detour.
	clean := build()
	defer clean.Close()
	pristine := solve(clean, 0)
	if churned.MeanHops(HopShortReach) <= pristine.MeanHops(HopShortReach) {
		t.Fatalf("churned hop mix %.3f not above pristine %.3f: stale clockwise path survived the reroute",
			churned.MeanHops(HopShortReach), pristine.MeanHops(HopShortReach))
	}

	// Same timeline, parallel tracing: bitwise identical.
	par := build()
	defer par.Close()
	arm(par)
	if got := solve(par, 4); !reflect.DeepEqual(churned, got) {
		t.Fatalf("parallel churned solve diverged:\nserial:   %+v\nparallel: %+v", churned, got)
	}
}

// TestFlowSolveSteadyStateAllocs pins the solver's zero-allocation contract:
// once a build-once/solve-many loop has warmed the trace cache and the
// retained buffers, a full SolveFlow + Reset cycle allocates nothing —
// below the knee, and above it where every solve runs waterfill rounds.
func TestFlowSolveSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rate   float64
		rounds bool
	}{{"idle", 0.05, false}, {"throttled", 0.5, true}} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 8
			net := buildRing(t, n)
			defer net.Close()
			net.SetEngine(EngineFlow)
			demands := ringDemands(n, tc.rate)
			opts := FlowOptions{
				Demands:    func() []FlowDemand { return demands },
				PacketSize: 4, Warmup: 100, Measure: 200,
			}
			cycle := func() {
				if err := net.SolveFlow(opts); err != nil {
					t.Fatal(err)
				}
				net.Reset()
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			if got := net.FlowSolverStats().WaterfillIters > 0; got != tc.rounds {
				t.Fatalf("waterfill ran rounds: %v, want %v", got, tc.rounds)
			}
			if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
				t.Fatalf("SolveFlow+Reset allocates %v times per run in steady state, want 0", allocs)
			}
		})
	}
}
