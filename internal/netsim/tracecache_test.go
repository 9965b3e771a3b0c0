package netsim

import (
	"errors"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"sldf/internal/engine"
)

// checkIndex fails the test unless c's key index agrees with want, the
// reference entry of every key, and finds none of the absent keys.
func checkIndex(t *testing.T, c *traceCache, want map[uint64]int32, absent []uint64) {
	t.Helper()
	for key, ei := range want {
		if _, got := c.find(key); got != ei {
			t.Fatalf("key %#x: index finds entry %d, oracle %d", key, got, ei)
		}
	}
	for _, key := range absent {
		if _, got := c.find(key); got >= 0 {
			t.Fatalf("absent key %#x: index finds entry %d", key, got)
		}
	}
	used := 0
	for _, v := range c.slots {
		if v > 0 {
			used++
		}
	}
	if used != len(want) || 4*used > 3*len(c.slots) {
		t.Fatalf("index holds %d keys in %d slots, oracle %d keys; want at most 3/4 full", used, len(c.slots), len(want))
	}
}

// TestTraceIndexMatchesMap checks the trace cache's open-addressing key
// index against a map oracle: across inserts that grow it from its
// smallest size and from a presized one, across overlay entries that are
// never indexed, and across the compaction that drops them and moves the
// reference entries made after them down.
func TestTraceIndexMatchesMap(t *testing.T) {
	for _, reserve := range []int{0, 3000} {
		c := newTraceCache()
		if reserve > 0 {
			c.reserve(reserve)
		}
		rng := engine.NewRNGStream(5, uint64(reserve))
		key := func() uint64 {
			// Node pairs of a few thousand routers, as real keys are.
			return pairKey(NodeID(rng.Intn(4096)), NodeID(rng.Intn(4096)))
		}
		want := map[uint64]int32{}
		var order []uint64 // reference keys in entry order
		for len(want) < 2500 {
			k := key()
			ei, _, _ := c.lookup(k)
			if old, ok := want[k]; ok {
				if ei != old {
					t.Fatalf("repeated key %#x served entry %d, first served %d", k, ei, old)
				}
				continue
			}
			want[k] = ei
			order = append(order, k)
		}
		var absent []uint64
		for len(absent) < 500 {
			k := key()
			if _, ok := want[k]; !ok {
				absent = append(absent, k)
			}
		}
		checkIndex(t, c, want, absent)

		// Route every third pair differently in a fault state: each gets
		// an overlay entry, outside the index. New pairs the state meets
		// get reference entries between the overlays, which compaction
		// must move down.
		c.setState(1)
		for i, k := range order {
			if i%3 == 0 {
				ei, need, _ := c.lookup(k)
				if !need {
					t.Fatalf("key %#x: a fresh state did not ask for a trace", k)
				}
				c.merge(ei, &traceResult{}, nil)
			}
			if i%5 == 0 {
				k := key()
				if _, ok := want[k]; !ok && !slices.Contains(absent, k) {
					want[k], _, _ = c.lookup(k)
					order = append(order, k)
				}
			}
		}
		c.endBuild()
		if c.overlays == 0 {
			t.Fatal("no overlay entries made")
		}
		checkIndex(t, c, want, absent)

		c.invalidateAll()
		if len(c.entries) != len(order) || c.overlays != 0 {
			t.Fatalf("compaction left %d entries (%d overlays), want %d reference entries", len(c.entries), c.overlays, len(order))
		}
		for i, k := range order {
			if c.entries[i].key != k {
				t.Fatalf("entry %d holds key %#x after compaction, want %#x", i, c.entries[i].key, k)
			}
			want[k] = int32(i)
		}
		checkIndex(t, c, want, absent)
	}
}

// atDoubling reports whether n keys fill an index exactly a half or 3/4,
// the counts next to which a presized index doubles.
func atDoubling(n int) bool {
	m := n >> bits.TrailingZeros(uint(n))
	return n > 0 && (m == 1 || m == 3)
}

// TestTraceIndexBytesPerEntry pins the key index's footprint: at most 3/4
// full, so at most 32/3 bytes per key however many keys were reserved or
// grown into (the map it replaced held ~30 B per key), from the first key
// count that outgrows its smallest size.
func TestTraceIndexBytesPerEntry(t *testing.T) {
	const maxBytes = 32.0 / 3
	c := newTraceCache()
	for n := 1; n <= 1<<14; n++ {
		c.lookup(uint64(n) * 0x1000193)
		ixs := []*traceCache{c}
		if atDoubling(n) || atDoubling(n-1) {
			r := newTraceCache()
			r.reserve(n)
			ixs = append(ixs, r)
		}
		for _, ix := range ixs {
			b := 4 * float64(len(ix.slots)) / float64(n)
			if n > 6 && b > maxBytes {
				t.Fatalf("%d keys: index is %.2f B per key, want at most %.2f", n, b, maxBytes)
			}
			if 4*n > 3*len(ix.slots) {
				t.Fatalf("%d keys in %d slots, more than 3/4 full", n, len(ix.slots))
			}
		}
	}
}

// TestTraceEpochWrapServesNoStale checks the uint32 epoch wrap: an entry
// traced in epoch 1 and untouched while the counter runs all the way round
// must not count as valid when the counter restarts at 1, and a fresh entry
// (epoch 0) must not either.
func TestTraceEpochWrapServesNoStale(t *testing.T) {
	c := newTraceCache()
	old := pairKey(1, 2)
	ei, need, _ := c.lookup(old)
	if !need {
		t.Fatal("a new key did not ask for a trace")
	}
	c.entries[ei].set(0, &traceResult{})
	c.epoch = math.MaxUint32
	if !c.invalidateAll() || c.epoch != 1 {
		t.Fatalf("invalidating at the last epoch: epoch %d, want a wrap to 1", c.epoch)
	}
	if _, need, hit := c.lookup(old); !need || hit {
		t.Fatalf("after the wrap an entry of the old epoch 1 was served (need %v, hit %v)", need, hit)
	}
	if _, need, _ := c.lookup(pairKey(3, 4)); !need {
		t.Fatal("after the wrap a fresh entry was served without a trace")
	}
}

// TestFlowEpochWrapRetraces drives the wrap through a network: every
// entry and fault-state record is renumbered into epoch 1, the epoch
// counter is set to its last value as if every invalidation in between
// had touched nothing, and a new routing is installed, which wraps the
// counter back to 1. The next solve must trace every pair again and match
// a fresh network solving under the new routing, not replay the old one's
// entries or flow table.
func TestFlowEpochWrapRetraces(t *testing.T) {
	const n = 8
	demands := ringDemands(n, 0.05)
	net := buildRing(t, n)
	defer net.Close()
	solveFlowRing(t, net, demands, FlowOptions{})
	traced := net.FlowSolverStats().Traces

	// The new routing reaches the destination by way of one extra lap of
	// the ring: every route is longer, so a stale entry would show.
	lapped := func(net *Network, r *Router, p *Packet) (int, uint8) {
		if r.ID == p.DstNode && p.Hops[HopOnChip] >= n {
			return int(r.EjectOut), 0
		}
		vc := p.VC
		if int(r.X) == n-1 {
			vc = 1
		}
		return 1, vc
	}
	net.AgeTraceEpoch(1, math.MaxUint32)
	net.SetRoute(lapped)
	got := solveFlowRing(t, net, demands, FlowOptions{})
	if d := net.FlowSolverStats().Traces - traced; d != traced {
		t.Fatalf("the solve after the epoch wrap traced %d pairs, want all %d", d, traced)
	}

	fresh := buildRing(t, n)
	defer fresh.Close()
	fresh.SetRoute(lapped)
	if want := solveFlowRing(t, fresh, demands, FlowOptions{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the epoch wrap:\n%+v\nfresh network:\n%+v", got, want)
	}
}

// TestFlowBaseLatencyOverflowRefused checks the guard on a trace's int32
// base latency: a network whose slowest link could carry a flowMaxHops
// route past it is refused with ErrFlowEngine by every flow entry point,
// and one just inside the bound solves.
func TestFlowBaseLatencyOverflowRefused(t *testing.T) {
	const size = 4
	limit := int32((math.MaxInt32-size)/flowMaxHops - 1) // largest delay accepted
	for _, tc := range []struct {
		delay int32
		ok    bool
	}{{limit, true}, {limit + 1, false}} {
		net := buildLine(t, 3, LinkSpec{Delay: tc.delay, Width: 1, VCs: 1, BufFlits: 8}, NetworkOptions{Seed: 1, Workers: 1})
		net.SetEngine(EngineFlow)
		err := net.SolveFlow(FlowOptions{
			Demands:    func() []FlowDemand { return []FlowDemand{{Src: 0, Dst: 2, Rate: 0.1}} },
			PacketSize: size, Warmup: 10, Measure: 20,
		})
		_, merr := net.FlowMakespan([]FlowVolume{{Src: 0, Dst: 2, Flits: 64}}, size)
		net.Close()
		for _, e := range []error{err, merr} {
			if tc.ok && e != nil {
				t.Fatalf("delay %d: %v", tc.delay, e)
			}
			if !tc.ok && !errors.Is(e, ErrFlowEngine) {
				t.Fatalf("delay %d: got %v, want an ErrFlowEngine refusal", tc.delay, e)
			}
		}
	}
}
