package energy

import (
	"math"
	"testing"

	"sldf/internal/netsim"
)

func TestBreakdownFromStats(t *testing.T) {
	var st netsim.Stats
	st.WindowPkts = 10
	st.Hops[netsim.HopOnChip] = 40     // 4 per packet
	st.Hops[netsim.HopShortReach] = 20 // 2 per packet
	st.Hops[netsim.HopLongLocal] = 20  // 2 per packet
	st.Hops[netsim.HopGlobal] = 10     // 1 per packet
	b := FromStats(st, TableII())
	if math.Abs(b.IntraCGroup-(4*0.1+2*2)) > 1e-9 {
		t.Fatalf("intra = %v", b.IntraCGroup)
	}
	if math.Abs(b.InterCGroup-(2*20+1*20)) > 1e-9 {
		t.Fatalf("inter = %v", b.InterCGroup)
	}
	if math.Abs(b.Total()-64.4) > 1e-9 {
		t.Fatalf("total = %v", b.Total())
	}
}

func TestSwitchlessCheaperThanSwitchBased(t *testing.T) {
	// Paper Fig. 15(a) analytical sanity: a small-scale switch-less minimal
	// path (1 global + 2 local + ~10 intra hops) must be cheaper than the
	// switch-based one (1 global + 4 local-class hops, counting the two
	// terminal links).
	m := Simplified()
	swl := FromHops(6, 6, 2, 1, m) // generous intra-C-group hop count
	swb := FromHops(0, 0, 4, 1, m) // Hg + 2Hl + 2H*l
	if swl.Total() >= swb.Total() {
		t.Fatalf("switch-less %v ≥ switch-based %v pJ/bit", swl.Total(), swb.Total())
	}
}

func TestFromStatsEmpty(t *testing.T) {
	var st netsim.Stats
	b := FromStats(st, TableII())
	if b.Total() != 0 {
		t.Fatalf("empty stats priced at %v", b.Total())
	}
}
