package netsim

import (
	"math"
	"testing"
)

func TestStatsZeroValues(t *testing.T) {
	var st Stats
	if st.MeanLatency() != 0 || st.MeanNetLatency() != 0 || st.Throughput() != 0 {
		t.Fatal("zero stats must report zero means")
	}
	if st.MeanHops(HopGlobal) != 0 {
		t.Fatal("zero stats must report zero hops")
	}
}

func TestStatsThroughputFormula(t *testing.T) {
	st := Stats{Cycles: 1000, Chips: 4, WindowFlits: 2000}
	if got := st.Throughput(); got != 0.5 {
		t.Fatalf("throughput %v, want 0.5", got)
	}
}

func TestStatsMeanHops(t *testing.T) {
	var st Stats
	st.WindowPkts = 4
	st.Hops[HopShortReach] = 10
	if got := st.MeanHops(HopShortReach); got != 2.5 {
		t.Fatalf("mean hops %v, want 2.5", got)
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	var a, b LatencyHist
	a.Add(5)
	a.Merge(&b) // merging empty must not disturb
	if a.Count != 1 || a.Min != 5 || a.Max != 5 {
		t.Fatalf("merge with empty corrupted: %+v", a)
	}
	b.Merge(&a)
	if b.Count != 1 || b.Min != 5 {
		t.Fatalf("merge into empty wrong: count=%d min=%d", b.Count, b.Min)
	}
}

func TestHistogramMergeMinMax(t *testing.T) {
	var a, b LatencyHist
	a.Add(10)
	a.Add(100)
	b.Add(3)
	b.Add(50)
	a.Merge(&b)
	if a.Count != 4 || a.Min != 3 || a.Max != 100 {
		t.Fatalf("merged summary wrong: %+v", a)
	}
}

func TestHopClassStrings(t *testing.T) {
	want := map[HopClass]string{
		HopOnChip: "onchip", HopShortReach: "sr", HopLongLocal: "local",
		HopGlobal: "global", HopEject: "eject", NumHopClasses: "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestRouterKindStrings(t *testing.T) {
	want := map[RouterKind]string{
		KindCore: "core", KindNIC: "nic", KindSwitch: "switch", KindPort: "port",
		RouterKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("kind %d = %q, want %q", k, k.String(), s)
		}
	}
}

func TestPacketTotalHops(t *testing.T) {
	p := &Packet{}
	p.Hops[HopOnChip] = 3
	p.Hops[HopShortReach] = 2
	p.Hops[HopGlobal] = 1
	p.Hops[HopEject] = 1 // excluded
	if got := p.TotalHops(); got != 6 {
		t.Fatalf("total hops %d, want 6", got)
	}
}

func TestArenaSlotReuse(t *testing.T) {
	n := &Network{shard: make([]shardStats, 1)}
	ref, p := n.allocPacket(0)
	p.ID = 42
	p.Hops[HopGlobal] = 7
	n.shard[0].free = append(n.shard[0].free, ref)
	ref2, q := n.allocPacket(0)
	if ref2 != ref || q != p {
		t.Fatal("arena did not reuse the freed slot")
	}
	if q.ID != 0 || q.Hops[HopGlobal] != 0 {
		t.Fatal("reused slot not zeroed")
	}
	alloc, free := n.ArenaSlots()
	if alloc != arenaChunkSize || free != arenaChunkSize-1 {
		t.Fatalf("slots: alloc %d free %d", alloc, free)
	}
}

// bucketIndexLoop is the histogram bucket rule written as a top-bit scan,
// the reference bucketIndex's bits.Len64 form must match.
func bucketIndexLoop(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 8 {
		return int(v)
	}
	hi := 63
	for v>>uint(hi)&1 == 0 {
		hi--
	}
	idx := (hi-2)*8 + int((v>>uint(hi-3))&7)
	if idx >= len(LatencyHist{}.Buckets) {
		idx = len(LatencyHist{}.Buckets) - 1
	}
	return idx
}

// TestBucketIndexMatchesLoop pins bucketIndex to the top-bit scan on every
// value below 2^16, on both sides of every power of two up to 2^62, and at
// the extremes (negative clamp, MaxInt64 in the top bucket it can reach).
func TestBucketIndexMatchesLoop(t *testing.T) {
	check := func(v int64) {
		t.Helper()
		if got, want := bucketIndex(v), bucketIndexLoop(v); got != want {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, want)
		}
	}
	for v := int64(0); v < 1<<16; v++ {
		check(v)
	}
	for k := 1; k <= 62; k++ {
		p := int64(1) << k
		check(p - 1)
		check(p)
		check(p + 1)
	}
	for _, v := range []int64{-1, math.MinInt64, math.MaxInt64, math.MaxInt64 - 1} {
		check(v)
	}
	top := bucketIndex(math.MaxInt64)
	if top >= len(LatencyHist{}.Buckets) {
		t.Fatalf("bucketIndex(MaxInt64) = %d, past the last bucket", top)
	}
	if bucketIndex(bucketLow(top)) != top {
		t.Fatalf("top bucket %d does not round-trip through bucketLow", top)
	}
}
