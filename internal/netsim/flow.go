package netsim

// The flow-level analytical engine (EngineFlow): instead of stepping
// packets cycle by cycle, it solves the steady-state per-link load induced
// by a sampled traffic matrix over the installed routing function, then
// synthesizes the same Stats surface the cycle engines produce — mean and
// quantile latency via an M/D/1-style queueing approximation, accepted
// throughput from the waterfilled loads, and per-link window flits so
// LinkUtilization works unchanged. It is approximate by design (validated
// against the cycle engines with pinned error bounds, see
// internal/core/flowvalidate_test.go) and exists for campaign points far
// beyond the cycle engines' scale ceiling.
//
// The engine reuses the network exactly as built: routes are traced by
// running the installed RouteFunc over a phantom packet hop by hop, so
// fault-aware routing and churn rewiring apply without flow-specific code.
// A traced network holds no packets, which is sound because a route never
// reads occupancy (see RouteFunc). Armed fault timelines
// are honored by segmenting the measurement window at event cycles and
// re-solving per segment (SolveFlow), which is what keeps churn campaigns
// working unchanged under EngineFlow.
//
// The solve is amortized and parallel:
//
//   - Traced routes live in a network-owned, epoch-versioned cache
//     (tracecache.go) that survives Reset, so a build-once/measure-many
//     sweep traces each (source node, destination node) pair once. Every
//     installed routing follows the fault state (faultroute.go), and the
//     cache is keyed by fault state too: each state the churn timeline
//     enters traces its pairs once and keeps only the paths that differ
//     from the base state's, so a revisited state — a repair back to the
//     base, or any state replayed after Reset — re-traces nothing.
//     SetRoute, SetFaultRouting, build-time faults, a packet-size change
//     and FlowCold discard every state's traces.
//   - Route tracing fans out across a solver-owned worker pool: phantom
//     traces draw their randomized decisions from per-pair streams
//     (Packet.TraceRNG), making each trace a pure function of network
//     state, safe to run concurrently and identical for any worker count.
//     The pending pairs are put in a coarse Z-order of (source node,
//     destination node) — node IDs are group-major, so neighbouring traces
//     walk the same routers and links — and traced in fixed-size batches
//     of that order, workers claiming runs within a batch. Each batch is
//     merged into the path arena in batch order before the next starts, so
//     the arena is byte-identical for any worker count and the trace
//     scratch holds one batch, whatever the pair count. Paths are written
//     once, into slabs that never move. A cold build presizes the cache's
//     index and entries.
//   - The solver keeps one record for each of the two fault states it used
//     last, keyed by the state and the trace epoch. A record holds the
//     state's flow table: the (source chip, destination chip) pair of every
//     positive-rate demand, in demand order, with the cache entry each was
//     served. Within one epoch the cache serves a state's pair one
//     unchanging entry, so the table lasts as long as the record: a later
//     build in the state whose demands repeat its pairs in order — every
//     warm point of a rate sweep, a churn state revisited — takes the
//     entries from the table with the new rates: no map lookup, and
//     CacheHits counted exactly as the lookups would have counted them. The
//     flow-incidence transpose belongs to the record whose table it was
//     built from and is rebuilt when that table is rebuilt, which an
//     evicted record's is on its next use. Within one solve a state's demands and traces are fixed and
//     the fixpoint restarts from x = 1, so a churn segment that returns to a
//     state an earlier segment of the solve solved would rebuild
//     bit-identical flows, loads and latencies: the record also keeps its
//     table's last solved segment, which such a segment restores and only
//     accumulates — no demands, lookups, transpose, waterfill or latency
//     synthesis.
//   - The waterfill load pass runs element-major over a flow-incidence
//     transpose: each element's load is a fixed-order reduction over its
//     incident flows, so partitioning elements (or flows, for the throttle
//     pass) across workers cannot change a single bit of the result. The
//     transpose itself is built on the pool, each element's incident flows
//     in ascending flow order. Every pass of a round runs on the pool: the
//     candidate gather and throttle split by flow range, each worker
//     binary-searching its range in each over-capacity element's incidence
//     list; the dirty marks split the same way, each worker setting the
//     elements of its own candidates' paths in a bitset of its own; and the
//     dirty-load refresh split by 64-element words, each worker merging the
//     bitsets' words of its range and refreshing the marked loads in
//     element order. A round reads each candidate flow's path at most once:
//     worst ratios come from the over-capacity elements through the
//     transpose, and when the throttled paths are long enough the round
//     refreshes every load instead of walking them (fullLoadPass).
//   - Latency synthesis computes each element's queueing term once per
//     segment, sums each flow's terms along its path on the pool, and folds
//     the window statistics serially in flow order.
//
// Serial and parallel solves are therefore bitwise identical; the knobs in
// FlowOptions are pure execution controls.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"sldf/internal/engine"
	"sldf/internal/profiling"
)

// FlowDemand is one steady-state flow of the sampled traffic matrix: chip
// Src offers Rate flits/cycle toward chip Dst. The solver spreads a chip's
// demands across its injection nodes the same way DstSameIndex does.
type FlowDemand struct {
	Src, Dst int32
	Rate     float64
}

// FlowVolume is one finite transfer for collective-step makespans: chip
// Src sends Flits flits to chip Dst, split evenly across Src's nodes.
type FlowVolume struct {
	Src, Dst int32
	Flits    int64
}

// FlowOptions configures one SolveFlow measurement window.
type FlowOptions struct {
	// Demands returns the sampled traffic matrix. It is re-invoked for
	// every churn segment the solve builds so the caller can re-filter dead
	// chips (deterministic sampling makes repeated calls identical
	// otherwise). A segment that returns to a fault state an earlier
	// segment of the same solve already solved may replay that state's
	// solved flows without calling it, so it must return the same demands
	// for the same fault state within one solve.
	Demands func() []FlowDemand
	// PacketSize is the packet size in flits (latency includes the
	// Size-cycle ejection serialization, exactly like the cycle engines).
	PacketSize int32
	// Warmup cycles are modeled but not measured; Measure cycles form the
	// reported window, mirroring the cycle engines' Run(Warmup) /
	// StartMeasurement / Run(Measure) sequence.
	Warmup, Measure int64

	// Workers sets the solver's parallelism for this solve; <= 0 solves
	// serially. Statistics are bit-identical for any worker count.
	Workers int
	// Cold discards the route-trace cache before solving, forcing a full
	// re-trace. Results are identical with or without it; the knob exists
	// for benchmarking and equivalence harnesses.
	Cold bool
}

// FlowStats reports cumulative flow-solver diagnostics for a network:
// phase wall times and cache effectiveness counters. Read with
// Network.FlowSolverStats; surfaced by slsim -flowstats. Churn batches and
// Reset neither evict nor discard traces, whichever call installed the
// routing: a revisited fault state adds nothing to Traces.
type FlowStats struct {
	Solves            int64 // SolveFlow calls
	Segments          int64 // measured churn segments, replayed ones included (>= Solves)
	Replays           int64 // segments restored from their fault state's record instead of rebuilt
	Traces            int64 // fresh route traces performed
	CacheHits         int64 // flows served from the route-trace cache; a reused flow table counts its flows as hits, replayed segments count none
	TableReuses       int64 // flow builds served from their fault state's flow table without cache lookups
	Evicted           int64 // always 0: churn never evicts traces (kept for the bench harness, which reads it)
	FullInvalidations int64 // discards of every state's traces (SetRoute, SetFaultRouting, faults, size change, Cold)
	WaterfillIters    int64 // waterfill rounds run
	TransposeBuilds   int64 // flow-incidence transpose rebuilds
	TraceHops         int64 // route steps traced: links crossed plus the ejection, failed traces' steps included

	TraceWall     time.Duration // wall time ordering, tracing and merging route traces
	TransposeWall time.Duration // wall time building the flow-incidence transpose
	WaterfillWall time.Duration // wall time in the throttle fixpoint
	HistWall      time.Duration // wall time synthesizing stats/histograms
}

// ErrFlowEngine wraps flow-solver usage errors.
var ErrFlowEngine = errors.New("netsim: flow engine")

// flowMaxHops bounds route tracing; any SLDF/Dragonfly/mesh route is far
// shorter, so hitting it means the routing function is cycling.
const flowMaxHops = 256

// flowHistScale is the histogram super-sampling factor: per-flow delivered
// packet counts can be fractional at quick windows, so bucket weights are
// scaled up to keep sub-packet flows from rounding out of the quantiles.
const flowHistScale = 64

// flowWaterfillIters bounds the throttle fixpoint iteration; the monotone
// scheme is usually converged after a handful of rounds.
const flowWaterfillIters = 24

// flowRhoCap keeps the M/D/1 waiting-time term finite at saturation.
const flowRhoCap = 0.98

// flowTraceSeed derives the per-pair trace RNG streams from the network
// seed, keeping them disjoint from the per-router and demand streams.
const flowTraceSeed = 0x7C0FFEE5EEDF10A7

// pprof phase labels (see internal/profiling); free unless a CPU profile
// is being captured.
var (
	flowPhaseTrace     = profiling.NewPhase("flow-trace")
	flowPhaseTranspose = profiling.NewPhase("flow-transpose")
	flowPhaseWaterfill = profiling.NewPhase("flow-waterfill")
	flowPhaseHist      = profiling.NewPhase("flow-histogram")
)

// flowFlow is one node-level flow of the current solve: its offered rate,
// solved throttle, and the route-cache entry holding its traced path.
// entry < 0 marks a demand refused before tracing (dead or out-of-range
// endpoint).
type flowFlow struct {
	rate  float64 // offered flits/cycle on this node-level flow
	x     float64 // throttle after waterfilling (delivered = rate*x)
	entry int32
}

// stateRecords is the number of fault-state records the solver keeps,
// least recently used first out. Two cover the common churn shape, a
// window that keeps returning to its base state between passing faults.
const stateRecords = 2

// stateRecord is what the solver keeps of one fault state, keyed by the
// trace cache's state and epoch; used is the solver's record clock at its
// last use, 0 for a record never claimed. The zero record matches no cache,
// whose epochs start at 1. The buffers are reused across claims.
//
// The flow table is what the state's last flow build served: the chip pair
// of every positive-rate demand in demand order (flowPair) and the cache
// entry each was served (-1 for a demand refused before tracing); tabled
// reports that the record has one. Within one epoch the cache serves each
// (state, pair) one unchanging entry, so the table stays valid as long as
// the record (see reuseTable).
//
// The solved segment is the last segment solved from the table: its flows
// with their solved throttles, the element loads, the per-flow latencies
// and the refused rate. solve is the FlowStats.Solves count of the solve
// that stored it; only a later segment of that solve replays it.
type stateRecord struct {
	state   int32
	epoch   uint32
	used    uint64
	tabled  bool
	pairs   []uint64
	entries []int32

	solve   int64
	refused float64
	flows   []flowFlow
	load    []float64
	lat     []float64
}

// flowPair packs a demand's chip pair into a flow-table key.
func flowPair(d FlowDemand) uint64 { return uint64(uint32(d.Src))<<32 | uint64(uint32(d.Dst)) }

// roundPart is one worker's share of a waterfill round's gather: its
// candidates fill cand from the start of its flow range up to end, and
// their paths hold walk elements.
type roundPart struct{ end, walk int }

// traceRun is the number of pending pairs a trace worker claims at once,
// consecutive in the locality order.
const traceRun = 64

// traceTileBits is the per-coordinate resolution of the trace locality
// order: pairs are bucketed by the top traceTileBits bits of their source
// and destination node IDs, and the buckets are visited in Z-order.
const traceTileBits = 8

// traceBatch is the number of pending pairs traced and merged at a time,
// consecutive in the locality order. The trace results and the workers'
// path buffers hold one batch, so they stay bounded at any pair count.
const traceBatch = 4096

// flowPathHint is the expected path length (elements per trace) a trace
// worker's buffer is reserved for before a batch, so a cold batch rarely
// grows it.
const flowPathHint = 32

// traceResult is one finished route trace, with its path at off in the
// tracing worker's scratch buffer until the deterministic merge copies it
// to arena offset at.
type traceResult struct {
	base       int32
	off, n, at int32
	wrk        int32
	ok         bool
	hops       [NumHopClasses]uint16
}

// flowWorker is one solver worker's record: everything the worker writes
// while the pool runs. The records sit side by side in flowSolver.worker,
// and a traced hop writes the worker's path buffer and reads its phantom
// packet, so two records sharing a cache line would invalidate each other's
// line on every hop (false sharing). The pad keeps each record on cache
// lines of its own: the record is a whole number of flowWorkerBlock-byte
// blocks, and at least a block lies between two workers' state.
type flowWorker struct {
	workerState
	_ [flowWorkerBlock + (flowWorkerBlock-unsafe.Sizeof(workerState{})%flowWorkerBlock)%flowWorkerBlock]byte
}

// flowWorkerBlock is the padding unit of a flowWorker: two 64-byte cache
// lines, which the adjacent-line prefetcher fetches as a pair.
const flowWorkerBlock = 128

// workerState is a flowWorker's state. The trace scratch is the phantom
// packet and its RNG stream (kept here so a trace allocates nothing), the
// buffer the worker's paths of the current batch collect in until the
// merge, and the route steps the worker traced in the current build. part
// is the worker's share of a waterfill round's gather, marks its dirty
// marks (a bitset over elements, empty between rounds), and curs its
// transpose cursors (see elemCursor).
type workerState struct {
	p     Packet
	rng   engine.RNG
	buf   []int32
	hops  int64
	part  roundPart
	marks []uint64
	curs  []int32
}

// flowKind is what the flow solver reads of an element: every element of
// one kind has the same width in flits/cycle (its capacity), wire delay in
// cycles and hop class. ser is the kind's serialization cycles at the
// solver's packet size, the queueing service time. The ejection port's
// kind has width 1, delay 0 and class HopEject; no link has delay 0.
type flowKind struct {
	width int32
	delay int32
	ser   float64
	class HopClass
}

// flowSolver is the network-owned solver state: the route-trace cache plus
// every per-solve buffer, retained across solves (and Reset) so steady-state
// campaign points allocate nothing. One load/capacity slot exists per link
// plus one per router — the router slots model the 1-flit/cycle ejection
// port, which is what saturates single-node chips long before their links
// do; cached path elements >= len(Links) are ejection elements.
type flowSolver struct {
	cache *traceCache

	flows      []flowFlow
	perChipSeq []int
	load       []float64

	// size is the packet size the capacities and the cached traces are
	// for, 0 before the first solve (see setFlowSize). elemKind maps each
	// element to its kind in kinds (see flowKind); kind 0 is the ejection
	// port's.
	size     int32
	elemKind []uint8
	kinds    []flowKind

	// Flow-incidence transpose (CSR): for element el, elemFlow[elemOff[el]:
	// elemOff[el+1]] lists the incident flow indices in flow order. tposeOf
	// is the record whose flow table it was built from (nil for none), so
	// a segment served from the same table skips the rebuild.
	elemOff  []int32
	elemFlow []int32
	tposeOf  *stateRecord

	// Pending-trace worklist, its locality order (positions in pending)
	// with the counting-sort buckets that build it, and the batch of the
	// order being traced with its results.
	pending   []int32
	order     []int32
	tiles     []int32
	tileShift uint
	batch     []int32
	results   []traceResult
	traceNext atomic.Int64
	traceSize int32

	// worker[w] is worker w's record for w < workers; the slice only grows.
	workers int
	worker  []flowWorker
	pool    *engine.Pool

	// Waterfill active sets: the monotone scheme only ever lowers
	// throttles, so loads only ever drop and the over-capacity element set
	// only shrinks — each round touches the congested neighborhood, not
	// the whole network. Stamps dedupe the per-round candidates; stamp
	// values are never reused (see waterfillStart's wrap guard). The dirty
	// elements are the workers' marks. passHook, a test hook, sends every
	// round down the whole-network load pass (> 0) or the dirty refresh
	// (< 0) instead of fullLoadPass's choice.
	overElems []int32   // elements still loaded past capacity
	cand      []int32   // per flow range: flows crossing an over-capacity element this round
	ratio     []float64 // per flow: worst capacity/load ratio this round
	delivered []float64 // per flow: rate*x, the term every load reduction sums
	flowStamp []int32
	stamp     int32
	passHook  int8

	// Latency synthesis: per-element M/D/1 waiting terms and per-flow
	// latencies of the solved segment.
	wait []float64
	lat  []float64

	// Persistent phase closures, built once so solves allocate nothing.
	traceFn, mergeFn, countFn, fillFn                  func(int)
	loadFn, gatherFn, markFn, refreshFn, waitFn, latFn func(int)

	starts []int64
	accum  flowAccum

	// Fault-state records (see record), their LRU clock, and a test hook
	// run after each replay with the replayed record and its refused rate
	// (nil outside tests).
	records  [stateRecords]stateRecord
	clock    uint64
	onReplay func(rec *stateRecord, refused float64)

	stats FlowStats
}

// phaseStart enters a timed solver phase: it sets the phase's pprof label
// and returns the phase's start time for phaseEnd.
func phaseStart(p profiling.Phase) time.Time {
	p.Enter()
	return wallClock()
}

// phaseEnd leaves the current solver phase and adds its wall time to *wall.
func phaseEnd(start time.Time, wall *time.Duration) {
	profiling.ExitPhase()
	*wall += wallClock().Sub(start)
}

// wallClock is the flow solver's one wall-clock read. The phase walls it
// feeds are FlowSolverStats diagnostics, never part of measured results.
func wallClock() time.Time {
	return time.Now() //sldf:nondeterministic-ok FlowSolverStats phase walls are diagnostics, never part of measured results
}

// flowSolver returns the network's solver, creating it on first use. The
// solver (and its route-trace cache) lives as long as the network and
// deliberately survives Reset: a build-once/measure-many sweep re-traces
// nothing between points.
func (n *Network) flowSolver() *flowSolver {
	if n.flow != nil {
		return n.flow
	}
	elems := len(n.Links) + len(n.Routers)
	nodeBits := bits.Len(uint(max(len(n.Routers)-1, 0)))
	tileBits := min(nodeBits, traceTileBits)
	fl := &flowSolver{
		cache:      newTraceCache(),
		perChipSeq: make([]int, len(n.ChipNodes)),
		load:       make([]float64, elems),
		wait:       make([]float64, elems),
		elemOff:    make([]int32, elems+1),
		tiles:      make([]int32, 1<<(2*tileBits)+1),
		tileShift:  uint(nodeBits - tileBits),
		worker:     make([]flowWorker, 1),
		workers:    1,
	}
	if n.faultRoute != nil {
		fl.cache.setState(n.faultRoute.cur)
	}
	//sldf:hotpath
	fl.traceFn = func(w int) {
		ts := &fl.worker[w]
		for {
			lo := int(fl.traceNext.Add(traceRun)) - traceRun
			if lo >= len(fl.batch) {
				break
			}
			for k := lo; k < min(lo+traceRun, len(fl.batch)); k++ {
				src, dst := pairFromKey(fl.cache.entries[fl.pending[fl.batch[k]]].key)
				res := n.traceOne(ts, src, dst, fl.traceSize)
				ts.hops += int64(res.n)
				res.wrk = int32(w)
				fl.results[k] = res
			}
		}
	}
	//sldf:hotpath
	fl.mergeFn = func(w int) {
		c := fl.cache
		lo, hi := engine.ShardBounds(len(fl.batch), fl.workers, w)
		for k := lo; k < hi; k++ {
			res := &fl.results[k]
			c.entries[fl.pending[fl.batch[k]]].set(res.at, res)
			if res.ok {
				copy(c.span(res.at, res.n), fl.worker[res.wrk].buf[res.off:res.off+res.n])
			}
		}
	}
	//sldf:hotpath
	fl.countFn = func(w int) {
		c := fl.cache
		cur := fl.elemCursor(w)
		clear(cur)
		lo, hi := engine.ShardBounds(len(fl.flows), fl.workers, w)
		for _, f := range fl.flows[lo:hi] {
			for _, el := range c.pathOf(&c.entries[f.entry]) {
				cur[el]++
			}
		}
	}
	//sldf:hotpath
	fl.fillFn = func(w int) {
		c := fl.cache
		cur := fl.elemCursor(w)
		lo, hi := engine.ShardBounds(len(fl.flows), fl.workers, w)
		for fi := lo; fi < hi; fi++ {
			for _, el := range c.pathOf(&c.entries[fl.flows[fi].entry]) {
				fl.elemFlow[cur[el]] = int32(fi)
				cur[el]++
			}
		}
	}
	//sldf:hotpath
	fl.loadFn = func(w int) {
		lo, hi := engine.ShardBounds(len(fl.load), fl.workers, w)
		for el := lo; el < hi; el++ {
			fl.load[el] = fl.elemLoad(int32(el))
		}
	}
	// gatherFn collects worker w's candidates, the flows of its flow range
	// crossing an over-capacity element, min-folds each element's ratio into
	// them and throttles them. Each element's incident flows are in
	// ascending flow order, so the range is one binary search away, and the
	// worker owns every flow it stamps, rescales or writes a ratio for.
	//
	//sldf:hotpath
	fl.gatherFn = func(w int) {
		lo, hi := engine.ShardBounds(len(fl.flows), fl.workers, w)
		end, walk := lo, 0
		for _, el := range fl.overElems {
			r := fl.capOf(el) / fl.load[el]
			inc := fl.elemFlow[fl.elemOff[el]:fl.elemOff[el+1]]
			if lo > 0 {
				k, _ := slices.BinarySearch(inc, int32(lo))
				inc = inc[k:]
			}
			for _, fi := range inc {
				if int(fi) >= hi {
					break
				}
				if fl.flowStamp[fi] != fl.stamp {
					fl.flowStamp[fi] = fl.stamp
					fl.cand[end] = fi
					end++
					fl.ratio[fi] = 1
					walk += int(fl.cache.entries[fl.flows[fi].entry].n)
				}
				if r < fl.ratio[fi] {
					fl.ratio[fi] = r
				}
			}
		}
		for _, fi := range fl.cand[lo:end] {
			if s := fl.ratio[fi]; s < 1 {
				f := &fl.flows[fi]
				f.x *= s
				fl.delivered[fi] = f.rate * f.x
			}
		}
		fl.worker[w].part = roundPart{end: end, walk: walk}
	}
	// markFn marks the elements on worker w's candidate paths, the ones the
	// round's throttles reach, in the worker's own bitset.
	//
	//sldf:hotpath
	fl.markFn = func(w int) {
		c := fl.cache
		marks := fl.worker[w].marks
		lo, _ := engine.ShardBounds(len(fl.flows), fl.workers, w)
		for _, fi := range fl.cand[lo:fl.worker[w].part.end] {
			for _, el := range c.pathOf(&c.entries[fl.flows[fi].entry]) {
				marks[el>>6] |= 1 << uint(el&63)
			}
		}
	}
	// refreshFn recomputes the marked loads of worker w's range of 64-element
	// words in ascending element order, merging and clearing every worker's
	// marks of each word.
	//
	//sldf:hotpath
	fl.refreshFn = func(w int) {
		lo, hi := engine.ShardBounds(len(fl.worker[0].marks), fl.workers, w)
		for wi := lo; wi < hi; wi++ {
			m := uint64(0)
			for v := range fl.workers {
				if b := fl.worker[v].marks[wi]; b != 0 {
					m |= b
					fl.worker[v].marks[wi] = 0
				}
			}
			for ; m != 0; m &= m - 1 {
				el := int32(wi<<6 | bits.TrailingZeros64(m))
				fl.load[el] = fl.elemLoad(el)
			}
		}
	}
	//sldf:hotpath
	fl.waitFn = func(w int) {
		lo, hi := engine.ShardBounds(len(fl.wait), fl.workers, w)
		for el := lo; el < hi; el++ {
			k := &fl.kinds[fl.elemKind[el]]
			rho := fl.load[el] / float64(k.width)
			if rho > flowRhoCap {
				rho = flowRhoCap
			}
			wait := 0.0
			if rho > 0 {
				wait = rho / (2 * (1 - rho)) * k.ser
			}
			fl.wait[el] = wait
		}
	}
	//sldf:hotpath
	fl.latFn = func(w int) {
		lo, hi := engine.ShardBounds(len(fl.flows), fl.workers, w)
		for i := lo; i < hi; i++ {
			e := &fl.cache.entries[fl.flows[i].entry]
			lat := float64(e.base)
			for _, el := range fl.cache.pathOf(e) {
				lat += fl.wait[el]
			}
			fl.lat[i] = lat
		}
	}
	n.flow = fl
	return fl
}

// setFlowWorkers sets the flow solver's parallelism (1 = serial; <=0 is
// clamped to 1). Worker count is a pure execution knob: statistics are
// bit-identical for any setting. The solver owns its pool — campaigns run
// the cycle engines' pool at Workers:1 and parallelize across points, so
// the flow solver parallelizes within a point independently.
func (n *Network) setFlowWorkers(w int) {
	fl := n.flowSolver()
	if w <= 0 {
		w = 1
	}
	if w == fl.workers {
		return
	}
	if fl.pool != nil {
		fl.pool.Close()
		fl.pool = nil
	}
	fl.workers = w
	if w > 1 {
		fl.pool = engine.NewPool(w)
	}
	for len(fl.worker) < w {
		fl.worker = append(fl.worker, flowWorker{})
	}
}

// FlowSolverStats returns the cumulative solver diagnostics (zero value if
// the flow solver was never used on this network).
func (n *Network) FlowSolverStats() FlowStats {
	if n.flow == nil {
		return FlowStats{}
	}
	return n.flow.stats
}

// flowInvalidateAll discards every cached route trace (no-op when the flow
// solver was never used).
func (n *Network) flowInvalidateAll() {
	if n.flow == nil {
		return
	}
	if n.flow.cache.invalidateAll() {
		// The restarted epochs must not meet a record of an old one.
		for i := range n.flow.records {
			n.flow.records[i].epoch = 0
		}
	}
	n.flow.stats.FullInvalidations++
}

// run executes fn(part) for every partition, on the solver pool when
// parallel. Partition layout never affects results (fixed-order reductions
// per element/flow), so this is purely an execution detail.
func (fl *flowSolver) run(fn func(int)) {
	if fl.pool == nil || fl.workers <= 1 {
		fn(0)
		return
	}
	fl.pool.Run(fl.workers, fn)
}

// traceOne runs the installed RouteFunc over a phantom packet from srcNode
// to dstNode, appending the links crossed (and the terminal ejection
// element) to ts.buf. Randomized routing decisions draw from a stream
// derived from the (srcNode, dstNode) pair, so the trace is a pure function
// of the network state — independent of trace order and safe to run
// concurrently. res.ok is false when the route dead-ends, crosses a
// disabled component, or exceeds flowMaxHops; the caller accounts such
// flows as refused. res.n counts the elements walked, a failed trace's
// included.
//
// A hop reads the router it is at, the out-port (link ID and next router)
// and the link's kind byte; it never loads the Link itself.
func (n *Network) traceOne(ts *flowWorker, srcNode, dstNode NodeID, size int32) traceResult {
	ts.rng = engine.NewRNGStream(n.seed^flowTraceSeed, pairKey(srcNode, dstNode))
	ts.p = Packet{
		SrcChip: n.Routers[srcNode].Chip, DstChip: n.Routers[dstNode].Chip,
		SrcNode: srcNode, DstNode: dstNode,
		Size: size, Aux: -1, Aux2: -1,
		TraceRNG: &ts.rng,
	}
	p := &ts.p
	var res traceResult
	res.off = int32(len(ts.buf))
	ejBase := int32(len(n.Links))
	kinds, elemKind := n.flow.kinds, n.flow.elemKind
	r := &n.Routers[srcNode]
	for hop := 0; hop < flowMaxHops; hop++ {
		out, vc := n.route(n, r, p)
		ports := n.OutPorts(r)
		if out < 0 || out >= len(ports) {
			break
		}
		op := ports[out]
		if op.Link < 0 {
			// Ejection: the terminal serializes the whole packet at one
			// flit per cycle, exactly like Router.allocate.
			ts.buf = append(ts.buf, ejBase+r.ID)
			res.n++
			res.base += size
			res.hops[HopEject]++
			res.ok = true
			return res
		}
		if !n.LinkAlive(op.Link) { // a dead endpoint router takes the link down
			break
		}
		k := &kinds[elemKind[op.Link]]
		p.VC = vc
		p.Hops[k.class]++
		res.hops[k.class]++
		ts.buf = append(ts.buf, op.Link)
		res.n++
		// Wire + the one-cycle handoff into the next router's input buffer
		// (the cycle engines deliver at now + Delay + 1).
		res.base += k.delay + 1
		r = &n.Routers[op.Dst]
	}
	ts.buf = ts.buf[:res.off]
	return res
}

// orderPending fills fl.order with the positions of fl.pending in a coarse
// Z-order of their (source node, destination node) pairs: one stable
// counting-sort pass over tiles of the top traceTileBits bits of each node
// ID, visited in Morton order. Node IDs are assigned group-major, so a run
// of consecutive traces starts and ends in the same few groups.
func (fl *flowSolver) orderPending() {
	tiles := fl.tiles
	clear(tiles)
	for _, ei := range fl.pending {
		tiles[fl.tileOf(ei)+1]++
	}
	for t := 1; t < len(tiles); t++ {
		tiles[t] += tiles[t-1]
	}
	fl.order = slices.Grow(fl.order[:0], len(fl.pending))[:len(fl.pending)]
	for i, ei := range fl.pending {
		t := fl.tileOf(ei)
		fl.order[tiles[t]] = int32(i)
		tiles[t]++
	}
}

// tileOf returns the Z-order tile of cache entry ei's pair.
func (fl *flowSolver) tileOf(ei int32) int32 {
	src, dst := pairFromKey(fl.cache.entries[ei].key)
	return int32(spreadBits(uint32(src)>>fl.tileShift)<<1 | spreadBits(uint32(dst)>>fl.tileShift))
}

// spreadBits interleaves zeros between the bits of x < 1<<8 (traceTileBits).
func spreadBits(x uint32) uint32 {
	x = (x | x<<4) & 0x0F0F
	x = (x | x<<2) & 0x3333
	x = (x | x<<1) & 0x5555
	return x
}

// tracePending traces every reserved cache entry in batches of traceBatch
// pairs of the locality order, fanning each batch's independent phantom
// traces across the solver pool, then merges the batch into the cache in
// batch order before the next batch starts — cache contents are identical
// for any worker count. Under the reference state the merge runs on the
// pool (mergeReference); under another fault state it is serial, and
// fl.flows must hold the build's flows: flows reserved on a pair the state
// routes differently are repointed at the state's own entry.
func (n *Network) tracePending(fl *flowSolver, size int32) {
	if len(fl.pending) == 0 {
		return
	}
	t0 := phaseStart(flowPhaseTrace)
	fl.orderPending()
	fl.traceSize = size
	c := fl.cache
	redirect := false
	for lo := 0; lo < len(fl.order); lo += traceBatch {
		fl.batch = fl.order[lo:min(lo+traceBatch, len(fl.order))]
		if cap(fl.results) < len(fl.batch) {
			fl.results = make([]traceResult, len(fl.batch))
		}
		fl.results = fl.results[:len(fl.batch)]
		reserve := (len(fl.batch)/fl.workers + 1) * flowPathHint
		for w := range fl.workers {
			fl.worker[w].buf = slices.Grow(fl.worker[w].buf[:0], reserve)
		}
		fl.traceNext.Store(0)
		fl.run(fl.traceFn)
		if c.state == 0 {
			fl.mergeReference()
			continue
		}
		for k, i := range fl.batch {
			res := &fl.results[k]
			if c.merge(fl.pending[i], res, fl.worker[res.wrk].buf[res.off:res.off+res.n]) {
				redirect = true
			}
		}
	}
	if redirect {
		c.redirect(fl.flows)
	}
	c.endBuild()
	for w := range fl.workers {
		fl.stats.TraceHops += fl.worker[w].hops
		fl.worker[w].hops = 0
	}
	fl.stats.Traces += int64(len(fl.pending))
	fl.pending = fl.pending[:0]
	phaseEnd(t0, &fl.stats.TraceWall)
}

// mergeReference stores the batch's traced reference entries in batch
// order: one serial pass places each successful path in the arena, then
// the paths are copied and the entries filled on the pool.
func (fl *flowSolver) mergeReference() {
	c := fl.cache
	for k := range fl.results {
		if res := &fl.results[k]; res.ok {
			res.at = c.place(res.n)
		}
	}
	fl.run(fl.mergeFn)
}

// flowBuildFlows expands chip-level demands into node-level flows for
// record rec, the current fault state's: from its flow table when the
// demands repeat the table's pairs (see reuseTable), otherwise from the
// route cache, scheduling misses for tracing, into a new table. Demands on
// a chip are spread round-robin across its injection nodes (matching
// DstSameIndex's node pairing); demands whose endpoints are dead or whose
// route fails are returned as refused flits/cycle, accumulated in demand
// order.
func (n *Network) flowBuildFlows(fl *flowSolver, rec *stateRecord, demands []FlowDemand, size int32) (refusedRate float64) {
	if !fl.reuseTable(rec, demands) {
		n.lookupFlows(fl, rec, demands, size)
	}
	// Drop refused flows (dead endpoints, failed traces) in demand order.
	w := 0
	for i := range fl.flows {
		f := fl.flows[i]
		if f.entry < 0 || !fl.cache.entries[f.entry].ok {
			refusedRate += f.rate
			continue
		}
		fl.flows[w] = f
		w++
	}
	fl.flows = fl.flows[:w]
	return refusedRate
}

// reuseTable fills fl.flows from rec's flow table when the positive-rate
// demands repeat the table's pairs in order. Each flow with an entry counts
// the cache hit its lookup would have been: outside a build every entry of
// the current state is traced. It reports whether the table was used; when
// not, fl.flows holds nothing meaningful.
//
//sldf:hotpath
func (fl *flowSolver) reuseTable(rec *stateRecord, demands []FlowDemand) bool {
	if !rec.tabled {
		return false
	}
	fl.flows = fl.flows[:0]
	k := 0
	var hits int64
	for _, d := range demands {
		if d.Rate <= 0 {
			continue
		}
		if k == len(rec.pairs) || rec.pairs[k] != flowPair(d) {
			return false
		}
		entry := rec.entries[k]
		if entry >= 0 {
			hits++
		}
		fl.flows = append(fl.flows, flowFlow{rate: d.Rate, x: 1, entry: entry})
		k++
	}
	if k != len(rec.pairs) {
		return false
	}
	fl.stats.CacheHits += hits
	fl.stats.TableReuses++
	return true
}

// lookupFlows serves demands from the route cache, tracing the pairs it
// misses, and keeps them as rec's flow table: fl.flows ends with one flow
// per positive-rate demand, refused ones included. A transpose built from
// rec's previous table is dropped.
func (n *Network) lookupFlows(fl *flowSolver, rec *stateRecord, demands []FlowDemand, size int32) {
	if len(fl.cache.entries) == 0 {
		fl.cache.reserve(len(demands))
	}
	if fl.tposeOf == rec {
		fl.tposeOf = nil
	}
	fl.flows = slices.Grow(fl.flows[:0], len(demands))
	fl.pending = slices.Grow(fl.pending[:0], len(demands))
	rec.pairs = slices.Grow(rec.pairs[:0], len(demands))
	rec.entries = slices.Grow(rec.entries[:0], len(demands))
	for i := range fl.perChipSeq {
		fl.perChipSeq[i] = 0
	}
	for _, d := range demands {
		if d.Rate <= 0 {
			continue
		}
		rec.pairs = append(rec.pairs, flowPair(d))
		entry := int32(-1)
		if int(d.Src) < len(n.ChipNodes) && int(d.Dst) < len(n.ChipNodes) {
			srcNodes := n.ChipNodes[d.Src]
			dstNodes := n.ChipNodes[d.Dst]
			if len(srcNodes) > 0 && len(dstNodes) > 0 {
				idx := fl.perChipSeq[d.Src] % len(srcNodes)
				fl.perChipSeq[d.Src]++
				ei, need, hit := fl.cache.lookup(pairKey(srcNodes[idx], dstNodes[idx%len(dstNodes)]))
				if need {
					fl.pending = append(fl.pending, ei)
				} else if hit {
					fl.stats.CacheHits++
				}
				entry = ei
			}
		}
		fl.flows = append(fl.flows, flowFlow{rate: d.Rate, x: 1, entry: entry})
	}
	n.tracePending(fl, size)
	// The entries as served, after any redirect to a state's own traces.
	for i := range fl.flows {
		rec.entries = append(rec.entries, fl.flows[i].entry)
	}
	rec.tabled = true
}

// buildTranspose builds the element->flows CSR used by the waterfill load
// pass. Element-major accumulation makes every element's load a fixed-order
// reduction over its incident flows — which is what keeps serial and
// parallel waterfills bit-identical.
//
// Each worker owns a contiguous flow range and an element cursor array: it
// counts its range's incidences, one serial pass over the elements turns
// the counts into each worker's first slot (worker by worker within an
// element, so every element's flows land in ascending flow order), and
// each worker fills its slots. The last worker's cursors are elemOff
// itself, so they end at each element's end offset; one shift turns them
// into the starts.
func (fl *flowSolver) buildTranspose() {
	elems := len(fl.load)
	for w := range fl.workers - 1 {
		if fl.worker[w].curs == nil {
			fl.worker[w].curs = make([]int32, elems)
		}
	}
	fl.run(fl.countFn)
	at := int32(0)
	for el := range elems {
		for w := range fl.workers {
			cur := fl.elemCursor(w)
			n := cur[el]
			cur[el] = at
			at += n
		}
	}
	if cap(fl.elemFlow) < int(at) {
		fl.elemFlow = make([]int32, at)
	}
	fl.elemFlow = fl.elemFlow[:at]
	fl.run(fl.fillFn)
	copy(fl.elemOff[1:], fl.elemOff[:elems])
	fl.elemOff[0] = 0
	fl.stats.TransposeBuilds++
}

// elemCursor returns worker w's transpose cursor array: its record's for
// every worker but the last, which uses elemOff itself. A record's cursors
// are allocated on the first transpose that gives it a cursor role.
func (fl *flowSolver) elemCursor(w int) []int32 {
	if w == fl.workers-1 {
		return fl.elemOff[:len(fl.load)]
	}
	return fl.worker[w].curs
}

// setCapacities fills the per-kind service times for packet size: an
// element of width W carries W flits/cycle and serializes a packet in
// ceil(size/W) cycles. Ejection ports are width-1 elements: one flit/cycle,
// size cycles. The first call gives every link spec of the network the kind
// after it (kind 0 is the ejection port's) and each link its spec's kind.
// A trace's base latency is an int32, so a size at which the longest trace
// — flowMaxHops hops of the slowest link, then the ejection — would
// overflow it is refused.
func (fl *flowSolver) setCapacities(n *Network, size int32) error {
	if fl.elemKind == nil {
		kinds := make([]flowKind, 1, len(n.specs)+1)
		kinds[0] = flowKind{width: 1, class: HopEject}
		for _, sp := range n.specs {
			kinds = append(kinds, flowKind{width: sp.Width, delay: sp.Delay, class: sp.Class})
		}
		elemKind := make([]uint8, len(n.Links)+len(n.Routers))
		for i := range n.Links {
			elemKind[i] = n.Links[i].Spec + 1
		}
		fl.elemKind, fl.kinds = elemKind, kinds
	}
	maxDelay := int64(0)
	for _, k := range fl.kinds {
		maxDelay = max(maxDelay, int64(k.delay))
	}
	if flowMaxHops*(maxDelay+1)+int64(size) > math.MaxInt32 {
		return fmt.Errorf("%w: %d hops of %d-cycle links and a %d-flit ejection overflow a trace's base latency",
			ErrFlowEngine, flowMaxHops, maxDelay, size)
	}
	for k := range fl.kinds {
		w := fl.kinds[k].width
		fl.kinds[k].ser = float64((size + w - 1) / w)
	}
	return nil
}

// setFlowSize readies the solver for packet size. A new size recomputes
// the service times and discards every cached trace, whose base latencies
// embed the ejection serialization; when the capacities cannot be set up,
// nothing changes.
func (n *Network) setFlowSize(fl *flowSolver, size int32) error {
	if fl.size == size {
		return nil
	}
	if err := fl.setCapacities(n, size); err != nil {
		return err
	}
	n.flowInvalidateAll()
	fl.size = size
	return nil
}

// capOf returns element el's capacity in flits/cycle.
func (fl *flowSolver) capOf(el int32) float64 { return float64(fl.kinds[fl.elemKind[el]].width) }

// waterfill runs the monotone throttle fixpoint: every flow crossing an
// over-capacity element is scaled by the worst capacity/load ratio along
// its path until no element is loaded past capacity. The result is a
// feasible operating point that matches the offered load below saturation
// and pins the bottleneck elements at capacity above it.
//
// The fixpoint is monotone — throttles only ever drop, so loads only ever
// drop and an element that reaches capacity never leaves it again. That
// lets each round work active sets instead of the whole network, with
// bit-identical results: a flow touching no over-capacity element would
// scale by exactly 1, and an element none of whose incident flows changed
// would recompute its fixed-order load reduction to exactly the stored
// value. A round reads each candidate flow's path at most once: worst
// ratios come from the over-capacity elements through the transpose, and
// loads are refreshed either for the elements on throttled paths or, when
// those paths are long enough, for every element (fullLoadPass). All passes
// partition work across the solver pool; neither partitioning affects the
// result bits.
//
//sldf:hotpath
func (fl *flowSolver) waterfill() {
	fl.waterfillStart()
	for iter := 0; len(fl.overElems) > 0 && iter < flowWaterfillIters; iter++ {
		fl.stats.WaterfillIters++
		fl.waterfillRound()
	}
}

// waterfillStart runs the full load pass at the flows' current throttles
// and collects the over-capacity elements.
//
//sldf:hotpath
func (fl *flowSolver) waterfillStart() {
	if cap(fl.flowStamp) < len(fl.flows) {
		fl.flowStamp = make([]int32, len(fl.flows))   //sldf:alloc-ok one-time stamp-array growth; steady state reuses capacity
		fl.cand = make([]int32, len(fl.flows))        //sldf:alloc-ok grown with flowStamp; steady state reuses capacity
		fl.ratio = make([]float64, len(fl.flows))     //sldf:alloc-ok grown with flowStamp; steady state reuses capacity
		fl.delivered = make([]float64, len(fl.flows)) //sldf:alloc-ok grown with flowStamp; steady state reuses capacity
	}
	fl.flowStamp = fl.flowStamp[:len(fl.flows)]
	fl.cand = fl.cand[:len(fl.flows)]
	fl.ratio = fl.ratio[:len(fl.flows)]
	fl.delivered = fl.delivered[:len(fl.flows)]
	for i := range fl.flows {
		fl.delivered[i] = fl.flows[i].rate * fl.flows[i].x
	}
	fl.run(fl.loadFn)
	if fl.stamp > 1<<30 {
		// Stamp values are never reused, so a (practically unreachable)
		// wraparound clears the dedupe array instead of risking collision.
		fl.stamp = 0
		clear(fl.flowStamp)
	}
	words := (len(fl.load) + 63) / 64
	for w := range fl.workers {
		if len(fl.worker[w].marks) != words {
			fl.worker[w].marks = make([]uint64, words) //sldf:alloc-ok once per worker record; steady state reuses it
		}
	}
	fl.overElems = fl.overElems[:0]
	for el := range fl.load {
		if fl.load[el] > fl.capOf(int32(el)) {
			fl.overElems = append(fl.overElems, int32(el))
		}
	}
}

// waterfillRound throttles every flow crossing an over-capacity element and
// refreshes the loads it changed. It relies on overElems being exactly the
// elements loaded past capacity, which monotonicity keeps true from round to
// round: a flow's worst ratio is then the minimum over the over-capacity
// elements it crosses, found through the transpose without reading its path.
// full reports whether the loads were refreshed by the whole-network pass
// rather than the dirty elements (see fullLoadPass).
//
// Every pass partitions the work on the pool without changing a bit: the
// candidates, exactly the flows crossing an over-capacity element (each has
// a worst ratio < 1 and throttles), are gathered and throttled per flow
// range (gatherFn), and since every flow scales by its own ratio the order
// they are found in reaches no result. The dirty elements, those sharing a
// flow with the throttled set, are marked per flow range (markFn) and
// refreshed per range of bitset words (refreshFn), each with its full
// fixed-order reduction, so the refreshed loads equal a whole-network load
// pass. At one worker every pass is a single serial loop.
//
//sldf:hotpath
func (fl *flowSolver) waterfillRound() (full bool) {
	fl.stamp++
	fl.run(fl.gatherFn)
	walk := 0 // path elements of the candidate flows
	for w := range fl.workers {
		walk += fl.worker[w].part.walk
	}
	full = fullLoadPass(walk, len(fl.elemFlow))
	if fl.passHook != 0 {
		full = fl.passHook > 0
	}
	if full {
		fl.run(fl.loadFn)
	} else {
		fl.run(fl.markFn)
		fl.run(fl.refreshFn)
	}
	// Monotonicity: no element outside the set can have crossed capacity,
	// so filtering the old set is the full rescan.
	w := 0
	for _, el := range fl.overElems {
		if fl.load[el] > fl.capOf(el) {
			fl.overElems[w] = el
			w++
		}
	}
	fl.overElems = fl.overElems[:w]
	return full
}

// fullLoadPass reports whether a waterfill round refreshes loads with the
// whole-network pass rather than the dirty elements, given the path
// elements of its candidate flows (walk) and the transpose's flow–element
// incidences. A dirty refresh marks every candidate path's elements, split
// by flow range, then sums the marked elements' incidences in element
// order, split by bitset words; the full pass sums every incidence, split
// by element range. Both shrink with more workers, so the threshold ignores
// the worker count, a round takes the same branch for any worker count,
// and either way the loads come out bit-identical. The dirty cost grows
// with the walk and the full pass's does not: on the radix-32 system at two
// workers (2-vCPU guest), rounds walking 4%, 11%, 24% and 81% of the
// incidences took 4.0–4.7, 6.7–9.3, 11–26 and 18–25 ms dirty against
// 6–11 ms for every full pass, so the full pass is taken once the walk
// reaches an eighth of all incidences.
func fullLoadPass(walk, incidences int) bool {
	return 8*walk >= incidences
}

// elemLoad is element el's load: the sum of its incident flows' delivered
// rates, in ascending flow order.
//
//sldf:hotpath
func (fl *flowSolver) elemLoad(el int32) float64 {
	s := 0.0
	for _, fi := range fl.elemFlow[fl.elemOff[el]:fl.elemOff[el+1]] {
		s += fl.delivered[fi]
	}
	return s
}

// latencies fills fl.lat with every flow's modeled end-to-end latency: the
// uncontended base plus an M/D/1 waiting term per traversed element at its
// solved utilization, capped near saturation so the estimate stays finite.
// Each element's term is computed once (0 when idle, and adding 0 leaves a
// latency unchanged); each flow then sums its path's terms in path order.
//
//sldf:hotpath
func (fl *flowSolver) latencies() {
	if cap(fl.lat) < len(fl.flows) {
		fl.lat = make([]float64, len(fl.flows)) //sldf:alloc-ok one-time growth; steady state reuses capacity
	}
	fl.lat = fl.lat[:len(fl.flows)]
	fl.run(fl.waitFn)
	fl.run(fl.latFn)
}

// record returns the record of the current fault state and trace epoch,
// marked most recently used. When no record holds them, the least recently
// used record is claimed for them, its table and segment dropped: its next
// build looks its pairs up, which drops a transpose built from its table.
//
//sldf:hotpath
func (fl *flowSolver) record() *stateRecord {
	c := fl.cache
	fl.clock++
	lru := &fl.records[0]
	for i := range fl.records {
		r := &fl.records[i]
		if r.state == c.state && r.epoch == c.epoch {
			r.used = fl.clock
			return r
		}
		if r.used < lru.used {
			lru = r
		}
	}
	lru.state, lru.epoch, lru.used = c.state, c.epoch, fl.clock
	lru.tabled, lru.solve = false, 0
	return lru
}

// replay restores rec's solved segment into fl.flows, fl.load and fl.lat
// when the current solve stored it, and returns its refused rate. The
// transpose is left alone: it still belongs to the table it was built from.
//
//sldf:hotpath
func (fl *flowSolver) replay(rec *stateRecord) (refused float64, ok bool) {
	if rec.solve != fl.stats.Solves {
		return 0, false
	}
	fl.flows = fl.flows[:0]
	fl.flows = append(fl.flows, rec.flows...)
	copy(fl.load, rec.load)
	fl.lat = fl.lat[:0]
	fl.lat = append(fl.lat, rec.lat...)
	fl.stats.Replays++
	return rec.refused, true
}

// keep stores the segment just solved, with its latencies, in rec, for a
// later segment of the current solve.
//
//sldf:hotpath
func (fl *flowSolver) keep(rec *stateRecord, refused float64) {
	rec.solve, rec.refused = fl.stats.Solves, refused
	rec.flows = rec.flows[:0]
	rec.flows = append(rec.flows, fl.flows...)
	rec.load = rec.load[:0]
	rec.load = append(rec.load, fl.load...)
	rec.lat = rec.lat[:0]
	rec.lat = append(rec.lat, fl.lat...)
}

// flowAccum accumulates window statistics across churn segments in float
// precision; the totals are rounded into the shard counters once. The
// per-link sums stay here: Network.WindowFlits reads them, rounded, once a
// solve has published them.
type flowAccum struct {
	deliveredFlits float64
	refusedPkts    float64
	netLatSum      float64
	hops           [NumHopClasses]float64
	linkFlits      []float64
	hist           LatencyHist
	// published reports that a completed solve published the totals; a
	// new solve or a Reset withdraws them.
	published bool
}

// reset clears the accumulator for a new solve, retaining the per-link
// buffer.
func (a *flowAccum) reset(links int) {
	a.published = false
	if cap(a.linkFlits) < links {
		a.linkFlits = make([]float64, links)
	}
	a.linkFlits = a.linkFlits[:links]
	for i := range a.linkFlits {
		a.linkFlits[i] = 0
	}
	a.deliveredFlits, a.refusedPkts, a.netLatSum = 0, 0, 0
	a.hops = [NumHopClasses]float64{}
	a.hist = LatencyHist{}
}

// accumulate folds one solved segment of cyc cycles, its latencies in
// fl.lat, into the totals, serially in flow order so every floating-point
// sum keeps its order.
func (a *flowAccum) accumulate(fl *flowSolver, size int32, refusedRate float64, cyc int64) {
	c := float64(cyc)
	a.refusedPkts += refusedRate * c / float64(size)
	for i := range a.linkFlits {
		a.linkFlits[i] += fl.load[i] * c
	}
	for i := range fl.flows {
		f := &fl.flows[i]
		delivered := f.rate * f.x * c
		if delivered <= 0 {
			continue
		}
		e := &fl.cache.entries[f.entry]
		a.deliveredFlits += delivered
		pkts := delivered / float64(size)
		lat := fl.lat[i]
		a.netLatSum += pkts * lat
		for h := 0; h < int(NumHopClasses); h++ {
			a.hops[h] += pkts * float64(e.hops[h])
		}
		w := int64(pkts*flowHistScale + 0.5)
		if w <= 0 {
			continue
		}
		v := int64(lat + 0.5)
		a.hist.Buckets[bucketIndex(v)] += w
		a.hist.Count += w
		a.hist.Sum += v * w
		if a.hist.Count == w || v < a.hist.Min {
			a.hist.Min = v
		}
		if v > a.hist.Max {
			a.hist.Max = v
		}
	}
}

// solveSegment serves demands for the current fault state, whose record
// is rec, and solves them: flows with their throttles in fl.flows, element
// loads in fl.load. It returns the refused rate.
func (n *Network) solveSegment(fl *flowSolver, rec *stateRecord, demands []FlowDemand, size int32) (refused float64) {
	refused = n.flowBuildFlows(fl, rec, demands, size)
	if fl.tposeOf != rec {
		t := phaseStart(flowPhaseTranspose)
		fl.buildTranspose()
		phaseEnd(t, &fl.stats.TransposeWall)
		fl.tposeOf = rec
	}
	t := phaseStart(flowPhaseWaterfill)
	fl.waterfill()
	phaseEnd(t, &fl.stats.WaterfillWall)
	return refused
}

// SolveFlow runs one analytical measurement window under EngineFlow. The
// network must be freshly built or Reset; afterwards Snapshot,
// LinkUtilization and the energy pricing read exactly as they would after
// a cycle-engine run of the same window. Armed churn timelines are applied
// at their event cycles: the window is segmented, each segment serves its
// routes for the fault state the event batch entered — tracing only what
// that state has not traced before — and re-solves, unless an earlier
// segment of the window solved the same state and its record still holds
// the solution (see replay), and the reported statistics are the
// segment-length-weighted aggregate.
func (n *Network) SolveFlow(opts FlowOptions) error {
	if n.engineKind != EngineFlow {
		return fmt.Errorf("%w: SolveFlow on engine %v", ErrFlowEngine, n.engineKind)
	}
	if opts.Demands == nil || opts.PacketSize <= 0 || opts.Measure <= 0 || opts.Warmup < 0 {
		return fmt.Errorf("%w: need Demands, PacketSize > 0, Measure > 0, Warmup >= 0", ErrFlowEngine)
	}
	size := opts.PacketSize
	horizon := opts.Warmup + opts.Measure

	fl := n.flowSolver()
	n.setFlowWorkers(opts.Workers)
	if opts.Cold {
		n.flowInvalidateAll()
	}
	if err := n.setFlowSize(fl, size); err != nil {
		return err
	}
	fl.stats.Solves++

	// Segment the horizon at pending churn cycles (the cursor marks events
	// already applied — a Reset rewinds it).
	fl.starts = append(fl.starts[:0], 0)
	if c := n.churn; c != nil {
		for _, e := range c.events[c.next:] {
			if e.Cycle > 0 && e.Cycle < horizon && e.Cycle != fl.starts[len(fl.starts)-1] {
				fl.starts = append(fl.starts, e.Cycle)
			}
		}
	}

	acc := &fl.accum
	acc.reset(len(n.Links))
	for i, segStart := range fl.starts {
		segEnd := horizon
		if i+1 < len(fl.starts) {
			segEnd = fl.starts[i+1]
		}
		n.Cycle = segStart
		if n.churn != nil {
			n.applyDueChurn()
			if err := n.ChurnErr(); err != nil {
				return err
			}
		}
		// The measured overlap of this segment with the window; segments
		// entirely inside warmup only advance the churn cursor.
		cyc := min(segEnd, horizon) - max(segStart, opts.Warmup)
		if cyc <= 0 {
			continue
		}
		fl.stats.Segments++
		rec := fl.record()
		refused, replayed := fl.replay(rec)
		if !replayed {
			refused = n.solveSegment(fl, rec, opts.Demands(), size)
		} else if fl.onReplay != nil {
			fl.onReplay(rec, refused)
		}
		t := phaseStart(flowPhaseHist)
		if !replayed {
			fl.latencies()
		}
		acc.accumulate(fl, size, refused, cyc)
		phaseEnd(t, &fl.stats.HistWall)
		// Only a later segment of this solve can replay it.
		if !replayed && i+1 < len(fl.starts) {
			fl.keep(rec, refused)
		}
	}

	// Publish the synthesized window: counters into shard 0, the per-link
	// sums, and the [0, Measure) bookkeeping Snapshot/LinkUtilization
	// expect. The flow model has no in-flight packets, so injected equals
	// delivered and the drain tail is implicit.
	deliveredPkts := int64(acc.deliveredFlits/float64(size) + 0.5)
	ss := &n.shard[0]
	ss.injectedPkts = deliveredPkts
	ss.deliveredPkts = deliveredPkts
	ss.refusedPkts = int64(acc.refusedPkts + 0.5)
	ss.winFlits = int64(acc.deliveredFlits + 0.5)
	ss.winPkts = deliveredPkts
	ss.winNetLatSum = int64(acc.netLatSum + 0.5)
	for h := 0; h < int(NumHopClasses); h++ {
		ss.winHops[h] = int64(acc.hops[h] + 0.5)
	}
	ss.lat = acc.hist
	acc.published = true
	n.measuring = false
	n.measStart = 0
	n.measEnd = opts.Measure
	n.Cycle = opts.Measure
	return nil
}

// FlowMakespan estimates the cycles one barrier-separated transfer set
// needs to complete: the bottleneck element's serialization time plus the
// longest path's pipeline-fill latency. Transfers whose endpoints are dead
// or unroutable are skipped (collective schedules recompute over survivors
// before each solve). Zero transfers complete in zero cycles. Routes are
// served from (and added to) the same trace cache SolveFlow uses, so
// collective schedules that revisit pairs across steps trace them once.
func (n *Network) FlowMakespan(vols []FlowVolume, packetSize int32) (int64, error) {
	if packetSize <= 0 {
		return 0, fmt.Errorf("%w: PacketSize > 0 required", ErrFlowEngine)
	}
	fl := n.flowSolver()
	if err := n.setFlowSize(fl, packetSize); err != nil {
		return 0, err
	}
	fl.flows = fl.flows[:0]
	fl.pending = fl.pending[:0]
	for _, v := range vols {
		if v.Flits <= 0 || int(v.Src) >= len(n.ChipNodes) || int(v.Dst) >= len(n.ChipNodes) {
			continue
		}
		srcNodes := n.ChipNodes[v.Src]
		dstNodes := n.ChipNodes[v.Dst]
		if len(srcNodes) == 0 || len(dstNodes) == 0 {
			continue
		}
		perNode := float64(v.Flits) / float64(len(srcNodes))
		for idx, srcNode := range srcNodes {
			ei, need, hit := fl.cache.lookup(pairKey(srcNode, dstNodes[idx%len(dstNodes)]))
			if need {
				fl.pending = append(fl.pending, ei)
			} else if hit {
				fl.stats.CacheHits++
			}
			fl.flows = append(fl.flows, flowFlow{rate: perNode, x: 1, entry: ei})
		}
	}
	n.tracePending(fl, packetSize)
	for i := range fl.load {
		fl.load[i] = 0
	}
	var maxBase int64
	for i := range fl.flows {
		f := &fl.flows[i]
		e := &fl.cache.entries[f.entry]
		if !e.ok {
			continue
		}
		for _, el := range fl.cache.pathOf(e) {
			fl.load[el] += f.rate
		}
		maxBase = max(maxBase, int64(e.base))
	}
	var maxSer float64
	for i, l := range fl.load {
		if l <= 0 {
			continue
		}
		if s := l / fl.capOf(int32(i)); s > maxSer {
			maxSer = s
		}
	}
	if maxSer == 0 && maxBase == 0 {
		return 0, nil
	}
	return maxBase + int64(math.Ceil(maxSer)), nil
}

// FlowSampleCount is the per-chip destination sample count the core layer
// uses when discretizing a traffic pattern into FlowDemands: dense enough
// for stable link loads on small systems, thinner at scales where the
// aggregate over many chips smooths the estimate anyway. Deterministic in
// the chip count so cached flow points are reproducible.
func FlowSampleCount(chips int) int {
	switch {
	case chips <= 256:
		// Tiny systems have no cross-chip aggregation to smooth sampling
		// noise — a multinomial wobble of a few samples shifts a whole
		// link's load — so they get a dense draw (still microseconds).
		return 256
	case chips <= 4096:
		return 32
	case chips <= 65536:
		return 8
	default:
		return 4
	}
}

// FlowDemandRNG returns the deterministic per-chip RNG stream for demand
// sampling; exported via helper so core and tests share one derivation.
func FlowDemandRNG(seed uint64, chip int32) engine.RNG {
	return engine.NewRNGStream(seed^0xF10A11CE, uint64(chip)+1)
}
