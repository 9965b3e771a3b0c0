package traffic

import (
	"testing"
)

func TestRingOrderWalk(t *testing.T) {
	r := rng()
	order := []int32{5, 2, 8, 1}
	ring := NewRing(order, false)
	if d := ring.Dest(5, r); d != 2 {
		t.Fatalf("dest(5) = %d", d)
	}
	if d := ring.Dest(1, r); d != 5 {
		t.Fatalf("wrap dest(1) = %d", d)
	}
	if d := ring.Dest(99, r); d != -1 {
		t.Fatalf("foreign chip dest = %d", d)
	}
}

func TestRingOrderBidirectional(t *testing.T) {
	r := rng()
	ring := NewRing([]int32{0, 1, 2, 3}, true)
	succ, pred := 0, 0
	for i := 0; i < 1000; i++ {
		switch ring.Dest(1, r) {
		case 2:
			succ++
		case 0:
			pred++
		default:
			t.Fatal("bidir ring left neighbourhood")
		}
	}
	if succ < 350 || pred < 350 {
		t.Fatalf("bidir split %d/%d", succ, pred)
	}
}

func TestRingOrderDegenerate(t *testing.T) {
	r := rng()
	if d := NewRing([]int32{7}, false).Dest(7, r); d != -1 {
		t.Fatalf("singleton ring produced %d", d)
	}
	if d := NewRing(nil, false).Dest(0, r); d != -1 {
		t.Fatalf("empty ring produced %d", d)
	}
}

func TestUniformDegenerate(t *testing.T) {
	r := rng()
	if d := (Uniform{N: 1}).Dest(0, r); d != -1 {
		t.Fatalf("1-chip uniform produced %d", d)
	}
}

func TestWorstCaseDegenerate(t *testing.T) {
	r := rng()
	if d := (WorstCase{ChipsPerGroup: 4, Groups: 1}).Dest(0, r); d != -1 {
		t.Fatalf("single-group worst case produced %d", d)
	}
}

func TestHotspotSelfGroupTraffic(t *testing.T) {
	// Hotspot traffic may stay inside the sender's own hot group.
	h := Hotspot{ChipsPerGroup: 4, HotGroups: []int32{0, 1}}
	r := rng()
	sawOwn, sawOther := false, false
	for i := 0; i < 500; i++ {
		d := h.Dest(1, r)
		if d/4 == 0 {
			sawOwn = true
		} else {
			sawOther = true
		}
	}
	if !sawOwn || !sawOther {
		t.Fatalf("hotspot coverage own=%v other=%v", sawOwn, sawOther)
	}
}

func TestRateZero(t *testing.T) {
	var g Rate
	g.Init(Uniform{N: 8}, 0, 4, 4)
	r := rng()
	for i := 0; i < 1000; i++ {
		if g.NextDest(int64(i), 0, 0, r) != -1 {
			t.Fatal("zero-rate generator produced a packet")
		}
	}
}

func TestVolumePartialProgress(t *testing.T) {
	v := NewVolumePerChip(NewRing(seq(2), false), 32, 4, []int{1, 1}, nil) // 8 packets per node
	r := rng()
	for i := 0; i < 3; i++ {
		v.NextDest(int64(i), 0, 0, r)
	}
	if v.Done() {
		t.Fatal("volume done too early")
	}
}

func TestByNameAliases(t *testing.T) {
	for _, name := range []string{"bitreverse", "bitshuffle", "bittranspose"} {
		if _, err := ByName(name, 32); err != nil {
			t.Fatalf("alias %q rejected: %v", name, err)
		}
	}
}

func TestLog2Floor(t *testing.T) {
	cases := map[int32]int{1: 1, 2: 1, 3: 1, 4: 2, 31: 4, 32: 5, 1312: 10}
	for n, want := range cases {
		if got := log2floor(n); got != want {
			t.Fatalf("log2floor(%d) = %d, want %d", n, got, want)
		}
	}
}
