package netsim

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"
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
		events := []TimedFault{LinkFault(100, fwd, false), LinkFault(100, rev, false)}
		if err := net.ScheduleChurn(events, DropInFlight); err != nil {
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
// below the knee, above it where every solve runs waterfill rounds, on a
// sweep whose every point is a warm point at a new rate that reuses the
// flow table, and under churn that returns to the base state, where later
// segments replay the base state's solution from its record.
func TestFlowSolveSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rates  []float64
		rounds bool
		churn  bool
	}{
		{"idle", []float64{0.05}, false, false},
		{"throttled", []float64{0.5}, true, false},
		{"sweep", []float64{0.05, 0.2, 0.5}, true, false},
		{"churn-replay", []float64{0.5}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 8
			var net *Network
			if !tc.churn {
				net = buildRing(t, n)
			} else {
				net = buildChurnRing(t, n, NetworkOptions{Seed: 1, Workers: 1})
				// The 1↔2 channel dies at 150 and is back at 200.
				fwd, rev := linkBetween(t, net, 1, 2), linkBetween(t, net, 2, 1)
				if err := net.ScheduleChurn([]TimedFault{
					LinkFault(150, fwd, false), LinkFault(150, rev, false),
					LinkFault(200, fwd, true), LinkFault(200, rev, true),
				}, DropInFlight); err != nil {
					t.Fatal(err)
				}
			}
			defer net.Close()
			net.SetEngine(EngineFlow)
			var sets [][]FlowDemand
			for _, rate := range tc.rates {
				sets = append(sets, ringDemands(n, rate))
			}
			point := 0
			opts := FlowOptions{
				Demands:    func() []FlowDemand { return sets[point%len(sets)] },
				PacketSize: 4, Warmup: 100, Measure: 200,
			}
			cycle := func() {
				if err := net.SolveFlow(opts); err != nil {
					t.Fatal(err)
				}
				net.Reset()
				point++
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			if got := net.FlowSolverStats().WaterfillIters > 0; got != tc.rounds {
				t.Fatalf("waterfill ran rounds: %v, want %v", got, tc.rounds)
			}
			if got := net.FlowSolverStats().Replays > 0; got != tc.churn {
				t.Fatalf("segments replayed: %v, want %v", got, tc.churn)
			}
			// Every solve after the first is a warm point that takes its
			// flows from the flow tables: without churn one, under churn
			// the base state's and the churned state's, and the base
			// state's return replays.
			perSolve := int64(1)
			if tc.churn {
				perSolve = 2
			}
			reused := net.FlowSolverStats().TableReuses
			if want := perSolve * int64(point-1); reused != want {
				t.Fatalf("flow tables reused %d times in %d solves, want %d", reused, point, want)
			}
			if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
				t.Fatalf("SolveFlow+Reset allocates %v times per run in steady state, want 0", allocs)
			}
			if d, want := net.FlowSolverStats().TableReuses-reused, perSolve*int64(point-3); d != want {
				t.Fatalf("flow tables reused %d times in %d measured solves, want %d", d, point-3, want)
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
		if err := net.ScheduleChurn([]TimedFault{LinkFault(100, fwd, false), LinkFault(100, rev, false)},
			DropInFlight); err != nil {
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
			if got := cap(fl.worker[w].buf); got > bound {
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

// TestFlowWorkerRecordsShareNoLines pins the layout that keeps the flow
// solver's workers from false sharing: a worker record is a whole number
// of flowWorkerBlock-byte blocks, and in a slice of records no field of
// worker w lies within a block of a field of worker w+1, so no cache line,
// nor the line pair the adjacent-line prefetcher fetches, holds state of
// two workers whatever the slice's alignment.
func TestFlowWorkerRecordsShareNoLines(t *testing.T) {
	size := unsafe.Sizeof(flowWorker{})
	if size%flowWorkerBlock != 0 {
		t.Fatalf("flowWorker is %d bytes, not a multiple of %d", size, flowWorkerBlock)
	}
	typ := reflect.TypeFor[flowWorker]()
	var fields []reflect.StructField
	for i := range typ.NumField() {
		if f := typ.Field(i); f.Name != "_" {
			fields = append(fields, f)
		}
	}
	if len(fields) == 0 {
		t.Fatal("flowWorker has no named fields; the check is vacuous")
	}
	for _, f := range fields {
		for _, g := range fields {
			// f of worker w ends at f.Offset+f.Type.Size(); g of worker w+1
			// starts at size+g.Offset.
			if gap := size + g.Offset - (f.Offset + f.Type.Size()); gap < flowWorkerBlock {
				t.Errorf("worker w's %s and worker w+1's %s are %d bytes apart, want at least %d",
					f.Name, g.Name, gap, flowWorkerBlock)
			}
		}
	}
}

// flowWindow is what a flow solve reports: the snapshot and the per-class
// and hottest link utilization.
type flowWindow struct {
	Stats   Stats
	ByClass [NumHopClasses]float64
	Hottest []LinkUtil
}

// TestFlowTableReuseOracle pins the flow-table reuse: one network runs a
// sequence of solves that each warm, void, evict or switch the fault-state
// records' flow tables, and every solve must equal the same solve on a
// freshly built network bit for bit. A second network runs the sequence
// with its tables voided before every solve, so every build looks its pairs
// up; both must count the same traces and cache hits at every step, and a
// table must be reused exactly on the steps that repeat the pairs its
// state's record last built, within the trace epoch it was built in. The
// demand set has duplicate pairs, a zero-rate demand and a demand to a chip
// that does not exist, and the throttled rate runs waterfill rounds on the
// reused flows.
func TestFlowTableReuseOracle(t *testing.T) {
	const n = 8
	demandsAt := func(rate float64, last int32) []FlowDemand {
		var d []FlowDemand
		for i := int32(0); i < n; i++ {
			d = append(d, FlowDemand{Src: i, Dst: (i + 3) % n, Rate: rate},
				FlowDemand{Src: i, Dst: (i + 1) % n, Rate: rate / 2},
				FlowDemand{Src: i, Dst: (i + 3) % n, Rate: rate})
		}
		return append(d, FlowDemand{Src: 1, Dst: 5, Rate: 0}, FlowDemand{Src: 2, Dst: n, Rate: rate},
			FlowDemand{Src: 4, Dst: last, Rate: rate})
	}
	// B differs from A in its last pair only.
	setA, setB := func(rate float64) []FlowDemand { return demandsAt(rate, 6) },
		func(rate float64) []FlowDemand { return demandsAt(rate, 7) }

	build := func() *Network {
		net := buildChurnRing(t, n, NetworkOptions{Seed: 1, Workers: 1})
		if err := net.ScheduleChurn(nil, DropInFlight); err != nil {
			t.Fatal(err)
		}
		net.SetEngine(EngineFlow)
		return net
	}
	// killAt(a, b) takes the a↔b channel down now: a fault state other
	// than the base, which reroutes the pairs crossing it.
	killAt := func(a, b NodeID) func(*Network) {
		return func(net *Network) {
			fwd, rev := linkBetween(t, net, a, b), linkBetween(t, net, b, a)
			if err := net.InjectChurn([]TimedFault{LinkFault(0, fwd, false), LinkFault(0, rev, false)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	kill, kill56 := killAt(1, 2), killAt(5, 6)
	solve := func(net *Network, demands []FlowDemand, size int32, cold bool) flowWindow {
		t.Helper()
		if err := net.SolveFlow(FlowOptions{
			Demands:    func() []FlowDemand { return demands },
			PacketSize: size, Warmup: 100, Measure: 200, Cold: cold,
		}); err != nil {
			t.Fatal(err)
		}
		var w flowWindow
		w.Stats = net.Snapshot()
		w.ByClass, w.Hottest = net.LinkUtilization(4)
		return w
	}

	type step struct {
		name    string
		before  func(net *Network) // applied to the network before the solve, fresh ones too
		demands []FlowDemand
		size    int32
		cold    bool
		reuse   bool
	}
	none := func(*Network) {}
	setRoute := func(net *Network) { net.SetRoute(net.route) }
	steps := []step{
		{"A", none, setA(0.05), 4, false, false},
		{"A at another rate", none, setA(0.4), 4, false, true},
		{"B", none, setB(0.4), 4, false, false},
		{"A after B", none, setA(0.05), 4, false, false},
		{"A repeated", none, setA(0.4), 4, false, true},
		{"A cold", none, setA(0.4), 4, true, false},
		{"A after cold", none, setA(0.05), 4, false, true},
		{"A at packet size 5", none, setA(0.4), 5, false, false},
		{"A after the size change", none, setA(0.05), 5, false, true},
		// Each of the two states keeps its own record, so switching
		// between them reuses both tables.
		{"A in the churned state", kill, setA(0.4), 5, false, false},
		{"A after Reset to the base", none, setA(0.4), 5, false, true},
		{"A repeated in the base", none, setA(0.05), 5, false, true},
		{"A in the churned state again", kill, setA(0.4), 5, false, true},
		{"A after a second Reset", none, setA(0.4), 5, false, true},
		{"A after SetRoute", setRoute, setA(0.4), 5, false, false},
		{"A after SetRoute repeated", none, setA(0.05), 5, false, true},
		// Two more states: the second claims the base's record, least
		// recently used, so the base's return must look its pairs up.
		{"A in the 5↔6 state", kill56, setA(0.4), 5, false, false},
		{"A in the 1↔2 state, evicting the base", kill, setA(0.4), 5, false, false},
		{"A back in the evicted base", none, setA(0.4), 5, false, false},
		// The 5↔6 state's record was claimed back by the base: rates of 0
		// serve no flow from a freshly claimed record, then from its
		// empty table.
		{"zero rates in the evicted 5↔6 state", kill56, setA(0), 5, false, false},
		{"zero rates repeated", kill56, setA(0), 5, false, true},
	}

	// Every solve is followed by Reset, which leaves a churned state for
	// the base.
	net, lookups := build(), build()
	defer net.Close()
	defer lookups.Close()
	for _, s := range steps {
		s.before(net)
		s.before(lookups)
		before, lbefore := net.FlowSolverStats(), lookups.FlowSolverStats()
		got := solve(net, s.demands, s.size, s.cold)
		for i := range lookups.flowSolver().records { // voids the tables: every pair is looked up
			lookups.flow.records[i].tabled = false
		}
		lgot := solve(lookups, s.demands, s.size, s.cold)
		after, lafter := net.FlowSolverStats(), lookups.FlowSolverStats()

		fresh := build()
		s.before(fresh)
		want := solve(fresh, s.demands, s.size, s.cold)
		fresh.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: differs from a fresh network:\ngot:  %+v\nwant: %+v", s.name, got, want)
		}
		if !reflect.DeepEqual(lgot, want) {
			t.Fatalf("%s: lookup-only solve differs from a fresh network:\ngot:  %+v\nwant: %+v", s.name, lgot, want)
		}
		if got, want := after.Traces-before.Traces, lafter.Traces-lbefore.Traces; got != want {
			t.Errorf("%s: %d traces, lookup-only run %d", s.name, got, want)
		}
		if got, want := after.CacheHits-before.CacheHits, lafter.CacheHits-lbefore.CacheHits; got != want {
			t.Errorf("%s: %d cache hits, lookup-only run %d", s.name, got, want)
		}
		if d := after.TableReuses - before.TableReuses; (d == 1) != s.reuse || d > 1 {
			t.Errorf("%s: flow table reused %d times, want reuse %v", s.name, d, s.reuse)
		}
		if d := lafter.TableReuses - lbefore.TableReuses; d != 0 {
			t.Errorf("%s: voided flow table reused %d times", s.name, d)
		}
		if s.demands[0].Rate == 0.4 && after.WaterfillIters == before.WaterfillIters {
			t.Errorf("%s: a throttled solve ran no waterfill rounds", s.name)
		}
		net.Reset()
		lookups.Reset()
	}
}
