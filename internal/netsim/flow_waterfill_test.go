package netsim_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"sldf/internal/engine"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// waterfillOracle is the flow solver's waterfill and latency synthesis as
// they were before rounds read worst ratios through the transpose: each
// candidate flow walks its path for its worst capacity/load ratio, the
// dirty elements come from a stamped walk of every candidate path, and
// each flow's latency divides load by capacity at every hop. It shares no
// code with the solver; only the fixed-order reductions are the same.
type waterfillOracle struct {
	paths      [][]int32
	rate, x    []float64
	base       []int64
	capa, ser  []float64
	load       []float64
	elemFlows  [][]int32 // per element: incident flows in flow order
	over, cand []int32
	flowStamp  []int
	elemStamp  []int
	stamp      int
}

func newWaterfillOracle(p netsim.FlowProbe) *waterfillOracle {
	o := &waterfillOracle{
		paths: p.Paths(), rate: p.Rates(), base: p.Bases(),
		capa: p.Capacities(), ser: p.ServiceTimes(),
	}
	o.x = make([]float64, len(o.paths))
	for i := range o.x {
		o.x[i] = 1
	}
	o.load = make([]float64, len(o.capa))
	o.elemFlows = make([][]int32, len(o.capa))
	for fi, path := range o.paths {
		for _, el := range path {
			o.elemFlows[el] = append(o.elemFlows[el], int32(fi))
		}
	}
	o.flowStamp = make([]int, len(o.paths))
	o.elemStamp = make([]int, len(o.capa))
	return o
}

func (o *waterfillOracle) refresh(el int32) {
	s := 0.0
	for _, fi := range o.elemFlows[el] {
		s += o.rate[fi] * o.x[fi]
	}
	o.load[el] = s
}

func (o *waterfillOracle) start() {
	for el := range o.load {
		o.refresh(int32(el))
		if o.load[el] > o.capa[el] {
			o.over = append(o.over, int32(el))
		}
	}
}

func (o *waterfillOracle) round() {
	o.stamp++
	o.cand = o.cand[:0]
	for _, el := range o.over {
		for _, fi := range o.elemFlows[el] {
			if o.flowStamp[fi] != o.stamp {
				o.flowStamp[fi] = o.stamp
				o.cand = append(o.cand, fi)
			}
		}
	}
	for _, fi := range o.cand {
		scale := 1.0
		for _, el := range o.paths[fi] {
			if o.load[el] > o.capa[el] {
				if s := o.capa[el] / o.load[el]; s < scale {
					scale = s
				}
			}
		}
		if scale < 1 {
			o.x[fi] *= scale
		}
	}
	o.stamp++
	for _, fi := range o.cand {
		for _, el := range o.paths[fi] {
			if o.elemStamp[el] != o.stamp {
				o.elemStamp[el] = o.stamp
				o.refresh(el)
			}
		}
	}
	w := 0
	for _, el := range o.over {
		if o.load[el] > o.capa[el] {
			o.over[w] = el
			w++
		}
	}
	o.over = o.over[:w]
}

func (o *waterfillOracle) latency(fi int) float64 {
	lat := float64(o.base[fi])
	for _, el := range o.paths[fi] {
		rho := o.load[el] / o.capa[el]
		if rho > netsim.FlowRhoCap {
			rho = netsim.FlowRhoCap
		}
		if rho > 0 {
			lat += rho / (2 * (1 - rho)) * o.ser[el]
		}
	}
	return lat
}

// checkBits fails the test at the first index where got and want differ
// bitwise.
func checkBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s %d: %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// sampledDemands draws a uniform traffic matrix: every chip offers rate
// flits/cycle split over samples random destinations.
func sampledDemands(chips, samples int, rate float64) []netsim.FlowDemand {
	var d []netsim.FlowDemand
	for c := 0; c < chips; c++ {
		rng := engine.NewRNGStream(17, uint64(c))
		for s := 0; s < samples; s++ {
			dst := rng.Intn(chips - 1)
			if dst >= c {
				dst++
			}
			d = append(d, netsim.FlowDemand{Src: int32(c), Dst: int32(dst), Rate: rate / float64(samples)})
		}
	}
	return d
}

// buildFlowSLDF builds the oracle tests' small switch-less Dragonfly (nine
// W-groups of 16 chips) with minimal routing, on the flow engine.
func buildFlowSLDF(t *testing.T) *netsim.Network {
	t.Helper()
	s, err := topology.BuildSLDF(topology.SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 4, H: 2, G: 0},
		topology.DefaultLinkClasses(routing.SLDFVCCount(routing.BaselineVC, routing.Minimal), 1),
		netsim.NetworkOptions{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.NewSLDFRouter(s, routing.BaselineVC, routing.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	r.Install(s.Net)
	s.Net.SetEngine(netsim.EngineFlow)
	return s.Net
}

// probeRounds runs demands' waterfill round by round at the network's
// flow worker count and returns, per round, whether it refreshed loads
// with the whole-network pass.
func probeRounds(net *netsim.Network, demands []netsim.FlowDemand, size int32) []bool {
	p := net.PrepareFlowSegment(demands, size)
	p.Start()
	var full []bool
	for len(p.OverElems()) > 0 && len(full) < netsim.WaterfillRounds {
		full = append(full, p.Round())
	}
	return full
}

// TestSolveFlowWorkersPerSolve checks that every solve applies its own
// FlowOptions.Workers: on one network, a 3-worker solve followed by a
// 0-worker solve runs the second serially, and solves at 2 and 7 workers
// follow, all with identical statistics. The point's waterfill refreshes
// loads with the whole-network pass in one round and with the dirty
// elements in another at every worker count, so the solves run both
// round passes on the pool.
func TestSolveFlowWorkersPerSolve(t *testing.T) {
	net := buildFlowSLDF(t)
	defer net.Close()
	demands := sampledDemands(len(net.ChipNodes), 16, 0.5)
	for _, workers := range []int{1, 2, 3, 7} {
		net.SetFlowWorkers(workers)
		rounds := probeRounds(net, demands, 4)
		if !slices.Contains(rounds, true) || !slices.Contains(rounds, false) {
			t.Fatalf("%d workers: rounds %v (true = whole-network load pass); want both passes", workers, rounds)
		}
	}
	solve := func(workers int) netsim.Stats {
		t.Helper()
		net.Reset()
		if err := net.SolveFlow(netsim.FlowOptions{
			Demands:    func() []netsim.FlowDemand { return demands },
			PacketSize: 4, Warmup: 100, Measure: 200, Workers: workers,
		}); err != nil {
			t.Fatal(err)
		}
		return net.Snapshot()
	}
	par := solve(3)
	if w, pooled := net.FlowWorkers(); w != 3 || !pooled {
		t.Fatalf("after a 3-worker solve: %d workers, pool %v", w, pooled)
	}
	ser := solve(0)
	if w, pooled := net.FlowWorkers(); w != 1 || pooled {
		t.Fatalf("after a 0-worker solve: %d workers, pool %v; want serial", w, pooled)
	}
	if !reflect.DeepEqual(par, ser) {
		t.Fatalf("serial solve differs from the 3-worker solve:\n%+v\n%+v", ser, par)
	}
	for _, workers := range []int{2, 7} {
		if got := solve(workers); !reflect.DeepEqual(got, ser) {
			t.Fatalf("%d-worker solve differs from the serial solve:\n%+v\n%+v", workers, got, ser)
		}
	}
}

// transposeOracle is the flow solver's flow-incidence transpose as it was
// built before it ran on the pool: count every element's incidences,
// prefix-sum the counts, then place the flows in flow order through a
// per-element cursor.
func transposeOracle(paths [][]int32, elems int) (off, flows []int32) {
	off = make([]int32, elems+1)
	total := 0
	for _, path := range paths {
		total += len(path)
		for _, el := range path {
			off[el+1]++
		}
	}
	for i := 1; i <= elems; i++ {
		off[i] += off[i-1]
	}
	flows = make([]int32, total)
	cur := slices.Clone(off[:elems])
	for fi, path := range paths {
		for _, el := range path {
			flows[cur[el]] = int32(fi)
			cur[el]++
		}
	}
	return off, flows
}

// TestTransposeMatchesOracle checks the flow solver's transpose against
// transposeOracle on the small switch-less Dragonfly at 1, 2, 3 and 5
// workers: the same offsets, and every element's incident flows in
// ascending flow order.
func TestTransposeMatchesOracle(t *testing.T) {
	net := buildFlowSLDF(t)
	defer net.Close()
	for _, samples := range []int{1, 16} {
		demands := sampledDemands(len(net.ChipNodes), samples, 0.5)
		for _, workers := range []int{1, 2, 3, 5} {
			net.SetFlowWorkers(workers)
			p := net.PrepareFlowSegment(demands, 4)
			off, flows := p.Transpose()
			wantOff, wantFlows := transposeOracle(p.Paths(), len(p.Capacities()))
			if !slices.Equal(off, wantOff) {
				t.Fatalf("%d samples, %d workers: element offsets differ from the oracle", samples, workers)
			}
			if !slices.Equal(flows, wantFlows) {
				t.Fatalf("%d samples, %d workers: incident flows differ from the oracle", samples, workers)
			}
		}
	}
}

// TestWaterfillMatchesOracle checks the flow solver's waterfill and latency
// synthesis against waterfillOracle on a small switch-less Dragonfly (nine
// W-groups of 16 chips), round by round and bit for bit, at 1, 2, 3 and 7
// workers: every flow's throttle, every element's load and every flow's
// latency. At the start of every round the solver's over-capacity set must
// be exactly the elements loaded past capacity, which is what lets it take
// worst ratios from that set. The rates cover a point with no rounds and
// points whose first round refreshes every load while later rounds refresh
// the dirty elements; the test fails if either branch goes unexercised, or
// if a worker count takes another branch than one worker in any round.
func TestWaterfillMatchesOracle(t *testing.T) {
	net := buildFlowSLDF(t)
	defer net.Close()
	const size = 5 // not a power of two, so regrouping a waiting term shows in its bits

	var fullRounds, listRounds int
	for _, rate := range []float64{0.05, 0.5, 1.0, 2.0} {
		demands := sampledDemands(len(net.ChipNodes), 16, rate)
		var serial []bool
		for _, workers := range []int{1, 2, 3, 7} {
			net.SetFlowWorkers(workers)
			p := net.PrepareFlowSegment(demands, size)
			o := newWaterfillOracle(p)
			p.Start()
			o.start()
			var branches []bool
			for round := 0; ; round++ {
				loads, capa, over := p.Loads(), p.Capacities(), p.OverElems()
				var above []int32
				for el := range loads {
					if loads[el] > capa[el] {
						above = append(above, int32(el))
					}
				}
				if !slices.Equal(over, above) {
					t.Fatalf("rate %.2f, %d workers, round %d: over-capacity set %v, elements past capacity %v",
						rate, workers, round, over, above)
				}
				if !slices.Equal(over, o.over) {
					t.Fatalf("rate %.2f, %d workers, round %d: over-capacity set %v, oracle %v",
						rate, workers, round, over, o.over)
				}
				at := fmt.Sprintf("rate %.2f, %d workers, round %d:", rate, workers, round)
				checkBits(t, at+" load of element", loads, o.load)
				checkBits(t, at+" throttle of flow", p.Throttles(), o.x)
				if len(over) == 0 || round == netsim.WaterfillRounds {
					break
				}
				branches = append(branches, p.Round())
				o.round()
			}
			lat := p.Latencies()
			want := make([]float64, len(o.paths))
			for fi := range want {
				want[fi] = o.latency(fi)
			}
			checkBits(t, fmt.Sprintf("rate %.2f, %d workers: latency of flow", rate, workers), lat, want)
			if workers > 1 && !slices.Equal(branches, serial) {
				t.Fatalf("rate %.2f, %d workers: rounds %v, one worker %v (true = whole-network load pass)",
					rate, workers, branches, serial)
			}
			if workers == 1 {
				serial = branches
				t.Logf("rate %.2f: %d flows, rounds %v (true = whole-network load pass)", rate, len(lat), branches)
				for i, full := range branches {
					switch {
					case full && i == 0:
						fullRounds++
					case !full && i > 0:
						listRounds++
					}
				}
			}
		}
	}
	if fullRounds == 0 || listRounds == 0 {
		t.Fatalf("%d first rounds took the whole-network pass and %d later rounds the dirty list; want both",
			fullRounds, listRounds)
	}
}
