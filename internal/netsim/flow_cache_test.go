package netsim

import (
	"reflect"
	"slices"
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

// traceLayout is what a solve leaves in the route-trace cache and the
// flow-incidence transpose.
type traceLayout struct {
	entries                 []traceEntry
	path, elemOff, elemFlow []int32
}

func layoutOf(net *Network) traceLayout {
	fl := net.flow
	return traceLayout{
		entries: slices.Clone(fl.cache.entries), path: slices.Concat(fl.cache.slabs...)[:fl.cache.pathEnd],
		elemOff: slices.Clone(fl.elemOff), elemFlow: slices.Clone(fl.elemFlow),
	}
}

// TestTraceLayoutIndependentOfWorkers pins that the worker count never
// shows in the cache or the transpose: cold solves with 1, 2 and 5 workers
// leave identical entries, path arenas and transposes, both under the
// reference fault state (parallel merge) and after a churn batch enters a
// new state (serial verify/overlay merge). The pair count spans many trace
// runs per worker.
func TestTraceLayoutIndependentOfWorkers(t *testing.T) {
	const n = 48
	var demands []FlowDemand
	for i := 0; i < n; i++ {
		for k := 1; k < n; k += 3 {
			demands = append(demands, FlowDemand{Src: int32(i), Dst: int32((i + k) % n), Rate: 0.002})
		}
	}
	var ref, churned []traceLayout
	for _, workers := range []int{1, 2, 5} {
		net := buildChurnRing(t, n, NetworkOptions{Seed: 1, Workers: 1})
		net.SetEngine(EngineFlow)
		opts := FlowOptions{
			Demands:    func() []FlowDemand { return demands },
			PacketSize: 4, Warmup: 0, Measure: 200, Workers: workers,
		}
		if err := net.SolveFlow(opts); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, layoutOf(net))
		net.Reset()
		fwd, rev := linkBetween(t, net, 1, 2), linkBetween(t, net, 2, 1)
		if err := net.ScheduleChurn([]TimedFault{LinkFault(100, fwd.ID, false), LinkFault(100, rev.ID, false)},
			DropInFlight, nil); err != nil {
			t.Fatal(err)
		}
		if err := net.SolveFlow(opts); err != nil {
			t.Fatal(err)
		}
		if _, overlays := net.FlowTraceEntries(); overlays == 0 {
			t.Fatal("churn state traced no overlay entries; the test does not reach the serial merge")
		}
		churned = append(churned, layoutOf(net))
		net.Close()
	}
	if len(ref[0].entries) != len(demands) {
		t.Fatalf("%d reference entries, want %d", len(ref[0].entries), len(demands))
	}
	for i, workers := range []int{2, 5} {
		if !reflect.DeepEqual(ref[0], ref[i+1]) {
			t.Fatalf("reference-state layout with %d workers differs from the serial one", workers)
		}
		if !reflect.DeepEqual(churned[0], churned[i+1]) {
			t.Fatalf("churn-state layout with %d workers differs from the serial one", workers)
		}
	}
}

// TestFlowColdSolveAllocsIndependentOfSize pins that a cold build grows
// nothing by doubling: a fresh network's first solve allocates equally
// often on an 8-node and a 64-node ring, because the cache index and
// entries, the worklists and the trace buffers are each sized once, and
// both rings' paths fit the arena's first slab. Every chip sends to three
// destinations, so both rings' demand counts exceed one 8-slot map group
// and both indexes take Go's full-size map layout. The solves run under
// testing.AllocsPerRun, one fresh network per run, so an allocation by
// the runtime or another test during the window rounds away in the
// per-run average.
func TestFlowColdSolveAllocsIndependentOfSize(t *testing.T) {
	const runs = 10
	coldAllocs := func(n int) float64 {
		var demands []FlowDemand
		for i := 0; i < n; i++ {
			for k := 1; k <= 3; k++ {
				demands = append(demands, FlowDemand{Src: int32(i), Dst: int32((i + k) % n), Rate: 0.05})
			}
		}
		opts := FlowOptions{
			Demands:    func() []FlowDemand { return demands },
			PacketSize: 4, Warmup: 100, Measure: 200,
		}
		// AllocsPerRun calls the function once more to warm up.
		nets := make([]*Network, runs+1)
		for i := range nets {
			nets[i] = buildRing(t, n)
			defer nets[i].Close()
			nets[i].SetEngine(EngineFlow)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			net := nets[next]
			next++
			if err := net.SolveFlow(opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := coldAllocs(8), coldAllocs(64)
	if small != large {
		t.Fatalf("cold solve allocates %v times on an 8-node ring, %v on a 64-node ring; want equal", small, large)
	}
	t.Logf("cold solve: %v allocations on either ring", small)
}

// TestFlowTraceScratchBounded pins that a cold solve's trace scratch holds
// one batch, whatever the pair count: the results hold at most traceBatch
// traces, and each worker's path buffer at most one batch of the longest
// path (or the reservation hint, when paths are shorter). On the 256-node
// ring the pairs span several batches and the arena outgrows that bound,
// so scratch sized to the worklist would fail it.
func TestFlowTraceScratchBounded(t *testing.T) {
	for _, tc := range []struct{ nodes, dests, workers int }{{8, 3, 1}, {256, 64, 1}, {256, 64, 3}} {
		net := buildRing(t, tc.nodes)
		var demands []FlowDemand
		for i := 0; i < tc.nodes; i++ {
			for k := 1; k <= tc.dests; k++ {
				demands = append(demands, FlowDemand{Src: int32(i), Dst: int32((i + k) % tc.nodes), Rate: 0.001})
			}
		}
		solveFlowRing(t, net, demands, FlowOptions{Workers: tc.workers})
		fl, c := net.flow, net.flow.cache
		longest := int32(0)
		for i := range c.entries {
			longest = max(longest, c.entries[i].n)
		}
		batch := min(len(demands), traceBatch)
		if cap(fl.results) > batch {
			t.Errorf("%d-node ring: %d trace results retained, want at most %d", tc.nodes, cap(fl.results), batch)
		}
		bound := (batch + 1) * int(max(longest, flowPathHint))
		for w := range tc.workers {
			if got := cap(fl.scratch[w].buf); got > bound {
				t.Errorf("%d-node ring, %d workers: worker %d retains %d path elements, want at most %d",
					tc.nodes, tc.workers, w, got, bound)
			}
		}
		if tc.nodes == 256 && int(c.pathEnd) <= bound {
			t.Fatalf("arena of %d elements within the scratch bound %d; the ring does not span batches", c.pathEnd, bound)
		}
		net.Close()
	}
}
