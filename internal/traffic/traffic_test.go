package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"sldf/internal/engine"
)

func rng() *engine.RNG {
	r := engine.NewRNG(7)
	return &r
}

func TestUniformRange(t *testing.T) {
	u := Uniform{N: 10}
	r := rng()
	for i := 0; i < 2000; i++ {
		src := r.Int31n(10)
		d := u.Dest(src, r)
		if d < 0 || d >= 10 || d == src {
			t.Fatalf("uniform dest %d for src %d", d, src)
		}
	}
}

// seq returns the chip sequence 0, 1, …, n−1.
func seq(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

func TestUniformCoverage(t *testing.T) {
	u := Uniform{N: 8}
	r := rng()
	counts := make([]int, 8)
	for i := 0; i < 40000; i++ {
		counts[u.Dest(0, r)]++
	}
	if counts[0] != 0 {
		t.Fatal("self traffic generated")
	}
	want := 40000.0 / 7
	for d := 1; d < 8; d++ {
		if math.Abs(float64(counts[d])-want) > 0.1*want {
			t.Fatalf("dest %d count %d deviates from %f", d, counts[d], want)
		}
	}
}

func TestBitReverseIsInvolution(t *testing.T) {
	p := BitReverse(16).(bitPermutation)
	for v := 0; v < 16; v++ {
		w := p.perm(v, p.bits)
		if p.perm(w, p.bits) != v {
			t.Fatalf("bit-reverse not an involution at %d", v)
		}
	}
}

func TestBitPermutationsArePermutations(t *testing.T) {
	for i, mk := range []func(int32) Pattern{BitReverse, BitShuffle, BitTranspose} {
		p := mk(32).(bitPermutation)
		seen := map[int]bool{}
		for v := 0; v < 32; v++ {
			w := p.perm(v, p.bits)
			if w < 0 || w >= 32 || seen[w] {
				t.Fatalf("pattern %d: perm(%d)=%d invalid or duplicate", i, v, w)
			}
			seen[w] = true
		}
	}
}

func TestBitPatternsNonPowerOfTwo(t *testing.T) {
	// 41 chips: the top chips (>= 32) fall back to uniform; all dests valid.
	r := rng()
	for k, mk := range []func(int32) Pattern{BitReverse, BitShuffle, BitTranspose} {
		p := mk(41)
		for src := int32(0); src < 41; src++ {
			for i := 0; i < 20; i++ {
				d := p.Dest(src, r)
				if d < -1 || d >= 41 {
					t.Fatalf("pattern %d: dest %d out of range", k, d)
				}
			}
		}
	}
}

func TestBitShuffleKnownValues(t *testing.T) {
	p := BitShuffle(8).(bitPermutation)
	// rotate-left-1 over 3 bits: 0b011 -> 0b110, 0b100 -> 0b001.
	if got := p.perm(0b011, 3); got != 0b110 {
		t.Fatalf("shuffle(011) = %03b", got)
	}
	if got := p.perm(0b100, 3); got != 0b001 {
		t.Fatalf("shuffle(100) = %03b", got)
	}
}

func TestBitTransposeKnownValues(t *testing.T) {
	p := BitTranspose(16).(bitPermutation)
	// 4 bits, halves swap: 0b0111 -> 0b1101.
	if got := p.perm(0b0111, 4); got != 0b1101 {
		t.Fatalf("transpose(0111) = %04b", got)
	}
}

func TestHotspotConfinement(t *testing.T) {
	h := Hotspot{ChipsPerGroup: 8, HotGroups: []int32{0, 1, 2, 3}}
	r := rng()
	for src := int32(0); src < 80; src++ {
		d := h.Dest(src, r)
		g := src / 8
		if g >= 4 {
			if d != -1 {
				t.Fatalf("cold chip %d transmitted to %d", src, d)
			}
			continue
		}
		if d < 0 || d >= 32 {
			t.Fatalf("hot chip %d dest %d outside hot region", src, d)
		}
	}
}

// TestHotspotSingleChipGroupTerminates is the regression test for the
// unbounded rejection loop: with one hot W-group holding a single chip the
// only candidate destination is the source itself, and Dest used to spin
// forever. It must return silence instead.
func TestHotspotSingleChipGroupTerminates(t *testing.T) {
	h := Hotspot{ChipsPerGroup: 1, HotGroups: []int32{3}}
	r := rng()
	if d := h.Dest(3, r); d != -1 {
		t.Fatalf("degenerate hotspot returned %d, want -1 (silence)", d)
	}
	// Cold chips stay silent as before.
	if d := h.Dest(0, r); d != -1 {
		t.Fatalf("cold chip transmitted to %d", d)
	}
	// With a second single-chip hot group there is a real candidate; the
	// bounded loop (or its fallback) must find it, never the source.
	h2 := Hotspot{ChipsPerGroup: 1, HotGroups: []int32{3, 5}}
	for i := 0; i < 200; i++ {
		if d := h2.Dest(3, r); d != 5 {
			t.Fatalf("two-group degenerate hotspot returned %d, want 5", d)
		}
	}
}

func TestVolumePerChipParticipants(t *testing.T) {
	counts := []int{2, 0, 1, 2} // chip 1 lost every injector
	v := NewVolumePerChip(NewRing(seq(4), false), 64, 4, counts, []int32{0, 2})
	// Non-participants (3) and zero-count chips (1) start exhausted.
	if d := v.NextDest(0, 3, 0, rng()); d != -1 {
		t.Fatalf("non-participant injected to %d", d)
	}
	if !vDone(v, 1) {
		t.Fatal("zero-count chip owes volume")
	}
	// Chip 0 splits 64 flits over 2 nodes of 4-flit packets: 8 each; chip 2
	// pushes all 16 packets through its single surviving node.
	for n := 0; n < 2; n++ {
		for i := 0; i < 8; i++ {
			if d := v.NextDest(0, 0, n, rng()); d != 1 {
				t.Fatalf("chip 0 node %d packet %d: dest %d", n, i, d)
			}
		}
		if d := v.NextDest(0, 0, n, rng()); d != -1 {
			t.Fatal("chip 0 exceeded its volume")
		}
	}
	for i := 0; i < 16; i++ {
		if d := v.NextDest(0, 2, 0, rng()); d != 3 {
			t.Fatalf("chip 2 packet %d: dest %d", i, d)
		}
	}
	if !v.Done() {
		t.Fatal("volume not done after participants drained")
	}
}

// vDone reports whether chip c's volume is exhausted.
func vDone(v *Volume, c int) bool {
	for _, left := range v.remaining[c] {
		if left > 0 {
			return false
		}
	}
	return true
}

func TestWorstCaseNeighborGroup(t *testing.T) {
	w := WorstCase{ChipsPerGroup: 4, Groups: 5}
	r := rng()
	f := func(srcRaw uint8) bool {
		src := int32(srcRaw) % 20
		d := w.Dest(src, r)
		return d/4 == (src/4+1)%5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRingNeighbors(t *testing.T) {
	ring := NewRing(seq(8), false)
	r := rng()
	for src := int32(0); src < 8; src++ {
		if d := ring.Dest(src, r); d != (src+1)%8 {
			t.Fatalf("ring dest(%d) = %d", src, d)
		}
	}
	bi := NewRing(seq(8), true)
	succ, pred := 0, 0
	for i := 0; i < 2000; i++ {
		d := bi.Dest(3, r)
		switch d {
		case 4:
			succ++
		case 2:
			pred++
		default:
			t.Fatalf("bidir ring dest %d", d)
		}
	}
	if succ < 800 || pred < 800 {
		t.Fatalf("bidir split %d/%d far from even", succ, pred)
	}
}

func TestRingWithBase(t *testing.T) {
	ring := NewRing([]int32{12, 13, 14, 15}, false)
	r := rng()
	if d := ring.Dest(15, r); d != 12 {
		t.Fatalf("ring wrap dest %d, want 12", d)
	}
	if d := ring.Dest(2, r); d != -1 {
		t.Fatalf("out-of-ring src produced %d", d)
	}
}

func TestRateExpectedLoad(t *testing.T) {
	// rate 1.0 flits/cycle/chip, 4-flit packets, 4 nodes → p = 1/16 per node.
	var g Rate
	g.Init(Uniform{N: 16}, 1.0, 4, 4)
	r := rng()
	gen := 0
	const cycles = 200000
	for i := 0; i < cycles; i++ {
		if g.NextDest(int64(i), 3, 1, r) >= 0 {
			gen++
		}
	}
	got := float64(gen) / cycles
	if math.Abs(got-1.0/16) > 0.004 {
		t.Fatalf("per-node generation rate %v, want 0.0625", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"uniform", "bit-reverse", "bit-shuffle", "bit-transpose"} {
		p, err := ByName(name, 64)
		if err != nil || p == nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope", 64); err == nil {
		t.Fatal("unknown pattern must error")
	}
}

func TestVolumeExhausts(t *testing.T) {
	v := NewVolumePerChip(NewRing(seq(4), false), 64, 4, []int{2, 2, 2, 2}, nil) // 64 flits = 16 pkts = 8/node
	r := rng()
	total := 0
	for cyc := 0; cyc < 100; cyc++ {
		for chip := int32(0); chip < 4; chip++ {
			for node := 0; node < 2; node++ {
				if v.NextDest(int64(cyc), chip, node, r) >= 0 {
					total++
				}
			}
		}
	}
	if !v.Done() {
		t.Fatal("volume generator not exhausted")
	}
	if total != 4*2*8 {
		t.Fatalf("generated %d packets, want %d", total, 4*2*8)
	}
}

func TestPermutationPattern(t *testing.T) {
	p := Permutation{Next: []int32{1, 0, 3, 2}}
	r := rng()
	if d := p.Dest(0, r); d != 1 {
		t.Fatalf("perm dest %d", d)
	}
	if d := p.Dest(9, r); d != -1 {
		t.Fatalf("out-of-map dest %d", d)
	}
}
