package topology

import (
	"fmt"
	"testing"
	"testing/quick"

	"sldf/internal/netsim"
)

// checkExactSize fails unless a builder's up-front reservation matched what
// it built. Finalize adopts the builder's tables only on an exact match
// (netsim's TestFinalizeAdoptsExactReservation pins that side), so equality
// here means every build of the kind allocates its router and link tables
// once.
func checkExactSize(t *testing.T, name string, net *netsim.Network, routers, links int) {
	t.Helper()
	if len(net.Routers) != routers || len(net.Links) != links {
		t.Errorf("%s: reserved %d routers / %d links, built %d / %d",
			name, routers, links, len(net.Routers), len(net.Links))
	}
}

func TestBuildersReserveExactSize(t *testing.T) {
	classes := DefaultLinkClasses(2, 1)
	for _, terms := range []int{2, 5, 32} {
		s, err := BuildSingleSwitch(terms, classes, opts())
		if err != nil {
			t.Fatal(err)
		}
		checkExactSize(t, fmt.Sprintf("switch/%d", terms), s.Net, 1+terms, 2*terms)
		s.Net.Close()
	}
	for _, dims := range [][2]int{{1, 2}, {2, 2}, {3, 2}, {4, 4}} {
		g, err := BuildMeshCGroup(dims[0], dims[1], classes, opts())
		if err != nil {
			t.Fatal(err)
		}
		m := g.M
		checkExactSize(t, fmt.Sprintf("mesh/%dx%d", dims[0], dims[1]), g.Net, m*m, meshLinks(m, m))
		g.Net.Close()
	}
	for _, p := range []DragonflyParams{
		{P: 4, A: 8, H: 5},       // radix-16 baseline
		{P: 4, A: 8, H: 5, G: 1}, // one group
		{P: 2, A: 3, H: 1},
		{P: 1, A: 1, H: 0},
	} {
		df, err := BuildDragonfly(p, classes, opts())
		if err != nil {
			t.Fatal(err)
		}
		r, l := p.size()
		checkExactSize(t, fmt.Sprintf("dragonfly/%+v", p), df.Net, r, l)
		df.Net.Close()
	}
	radix16 := SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 8, H: 5}
	single := radix16
	single.G = 1
	southNorth := radix16
	southNorth.Layout = LayoutSouthNorth
	for _, p := range []SLDFParams{
		radix16, single, southNorth,
		{NoCDim: 2, ChipCols: 4, ChipRows: 2, AB: 4, H: 2}, // rectangular C-group
		{NoCDim: 1, ChipCols: 2, ChipRows: 2, AB: 1, H: 1},
	} {
		s, err := BuildSLDF(p, classes, opts())
		if err != nil {
			t.Fatal(err)
		}
		r, l := p.size()
		checkExactSize(t, fmt.Sprintf("sldf/%+v", p), s.Net, r, l)
		s.Net.Close()
	}
}

// TestSLDFSizeRandomParams checks the SLDF count formula over the same
// generated parameter space as TestSLDFInvariantsRandomParams.
func TestSLDFSizeRandomParams(t *testing.T) {
	f := func(noc, cols, rows, ab, h uint8, southNorth bool) bool {
		p := SLDFParams{
			NoCDim:   int(noc%2) + 1,
			ChipCols: int(cols%3) + 1,
			ChipRows: int(rows%2) + 1,
			AB:       int(ab%3) + 1,
			H:        int(h%2) + 1,
		}
		if southNorth {
			p.Layout = LayoutSouthNorth
		}
		if p.MeshX() < 2 || p.MeshY() < 2 || p.Groups() > 9 {
			return true
		}
		s, err := BuildSLDF(p, DefaultLinkClasses(1, 1), opts())
		if err != nil {
			return false
		}
		defer s.Net.Close()
		r, l := p.size()
		return len(s.Net.Routers) == r && len(s.Net.Links) == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
