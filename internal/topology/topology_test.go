package topology

import (
	"testing"
	"testing/quick"

	"sldf/internal/engine"
	"sldf/internal/netsim"
)

func opts() netsim.NetworkOptions { return netsim.NetworkOptions{Seed: 1, Workers: 1} }

func TestSingleSwitchStructure(t *testing.T) {
	s, err := BuildSingleSwitch(4, DefaultLinkClasses(1, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	if got := len(s.Net.Routers); got != 5 {
		t.Fatalf("router count %d, want 5 (1 switch + 4 NICs)", got)
	}
	if s.Net.NumChips() != 4 {
		t.Fatalf("chips = %d, want 4", s.Net.NumChips())
	}
	sw := s.Net.Router(s.Switch)
	if in, out := len(s.Net.InLinks(sw)), len(s.Net.OutPorts(sw)); in != 4 || out != 4 {
		t.Fatalf("switch ports in=%d out=%d, want 4/4", in, out)
	}
	for c, nic := range s.NICs {
		r := s.Net.Router(nic)
		if r.Chip != int32(c) {
			t.Fatalf("NIC %d chip = %d", c, r.Chip)
		}
		if r.InjIn < 0 || r.EjectOut < 0 {
			t.Fatalf("NIC %d missing terminal ports", c)
		}
	}
}

func TestSingleSwitchRejectsTiny(t *testing.T) {
	if _, err := BuildSingleSwitch(1, DefaultLinkClasses(1, 1), opts()); err == nil {
		t.Fatal("1-terminal switch must be rejected")
	}
}

func TestMeshCGroupStructure(t *testing.T) {
	g, err := BuildMeshCGroup(2, 2, DefaultLinkClasses(1, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Net.Close()
	if g.M != 4 {
		t.Fatalf("mesh side %d, want 4", g.M)
	}
	if len(g.Net.Routers) != 16 {
		t.Fatalf("routers %d, want 16", len(g.Net.Routers))
	}
	if g.Net.NumChips() != 4 {
		t.Fatalf("chips %d, want 4 chiplets", g.Net.NumChips())
	}
	// Every chip owns 4 cores (2x2 NoC).
	for c, nodes := range g.Net.ChipNodes {
		if len(nodes) != 4 {
			t.Fatalf("chip %d has %d cores, want 4", c, len(nodes))
		}
	}
	// Degree check: corner cores have 2 mesh links, edges 3, interior 4.
	degreeCount := map[int]int{}
	for i := range g.Net.Routers {
		r := &g.Net.Routers[i]
		links := 0
		for _, op := range g.Net.OutPorts(r) {
			if op.Link >= 0 {
				links++
			}
		}
		degreeCount[links]++
	}
	if degreeCount[2] != 4 || degreeCount[3] != 8 || degreeCount[4] != 4 {
		t.Fatalf("mesh degree histogram %v, want 4 corners/8 edges/4 interior", degreeCount)
	}
}

func TestMeshCGroupLinkClasses(t *testing.T) {
	g, err := BuildMeshCGroup(2, 2, DefaultLinkClasses(1, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Net.Close()
	onchip, sr := 0, 0
	for _, l := range g.Net.Links {
		switch l.Class {
		case netsim.HopOnChip:
			onchip++
		case netsim.HopShortReach:
			sr++
		default:
			t.Fatalf("unexpected link class %v in standalone C-group", l.Class)
		}
	}
	// 4x4 mesh: 24 bidi links total; 8 bidi cross chiplet boundaries
	// (4 vertical crossings + 4 horizontal crossings).
	if onchip != 32 || sr != 16 {
		t.Fatalf("onchip=%d sr=%d directed links, want 32/16", onchip, sr)
	}
}

func TestMeshXYRouting(t *testing.T) {
	g, err := BuildMeshCGroup(2, 2, DefaultLinkClasses(1, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Net.Close()
	g.Net.SetRoute(g.RouteXY())
	g.Net.SetTraffic(netsim.GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
		if now < 50 && rng.Bernoulli(0.2) {
			d := rng.Int31n(4)
			if d == src {
				return -1
			}
			return d
		}
		return -1
	}), 4, netsim.DstSameIndex)
	g.Net.StartMeasurement()
	if err := g.Net.Run(50); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Net.Drain(1000); err != nil {
		t.Fatal(err)
	}
	st := g.Net.Snapshot()
	if st.InjectedPkts == 0 || st.InjectedPkts != st.DeliveredPkts {
		t.Fatalf("injected %d delivered %d", st.InjectedPkts, st.DeliveredPkts)
	}
	// XY on a 4x4 mesh: max 6 mesh hops; mean latency must be modest.
	if m := st.MeanLatency(); m < 2 || m > 60 {
		t.Fatalf("mean latency %v out of expected band", m)
	}
}

func TestDragonflyStructureRadix16(t *testing.T) {
	p := DragonflyParams{P: 4, A: 8, H: 5}
	if p.Groups() != 41 {
		t.Fatalf("groups = %d, want 41", p.Groups())
	}
	if p.Chips() != 1312 {
		t.Fatalf("chips = %d, want 1312", p.Chips())
	}
	df, err := BuildDragonfly(p, DefaultLinkClasses(3, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer df.Net.Close()
	// 41*8 switches + 1312 NICs.
	if got := len(df.Net.Routers); got != 41*8+1312 {
		t.Fatalf("router count %d, want %d", got, 41*8+1312)
	}
	// Each switch: 4 terminal + 7 local + 5 global = 16 ports (radix 16).
	for w := 0; w < 41; w++ {
		for s := 0; s < 8; s++ {
			r := df.Net.Router(df.Switches[w][s])
			links := 0
			for _, op := range df.Net.OutPorts(r) {
				if op.Link >= 0 {
					links++
				}
			}
			if links != 16 {
				t.Fatalf("switch (%d,%d) radix %d, want 16", w, s, links)
			}
		}
	}
}

func TestDragonflyGlobalWiringBijective(t *testing.T) {
	p := DragonflyParams{P: 2, A: 3, H: 2} // g = 7
	df, err := BuildDragonfly(p, DefaultLinkClasses(3, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer df.Net.Close()
	g := p.Groups()
	// Count global links between every pair of groups: must be exactly one
	// bidirectional link per pair.
	pairs := map[[2]int32]int{}
	for _, l := range df.Net.Links {
		if l.Class != netsim.HopGlobal {
			continue
		}
		w1 := df.Net.Router(l.Src).WGroup
		w2 := df.Net.Router(l.Dst).WGroup
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		pairs[[2]int32{w1, w2}]++
	}
	want := g * (g - 1) / 2
	if len(pairs) != want {
		t.Fatalf("connected group pairs %d, want %d", len(pairs), want)
	}
	for pair, n := range pairs {
		if n != 2 { // two directed links per bidi channel
			t.Fatalf("pair %v has %d directed global links, want 2", pair, n)
		}
	}
}

func TestDragonflyGlobalOwnerConsistent(t *testing.T) {
	p := DragonflyParams{P: 2, A: 3, H: 2}
	df, err := BuildDragonfly(p, DefaultLinkClasses(3, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer df.Net.Close()
	g := p.Groups()
	for w := 0; w < g; w++ {
		for wd := 0; wd < g; wd++ {
			if w == wd {
				continue
			}
			s, k := df.GlobalOwner(w, wd)
			// The switch's k-th global port must lead to a switch in wd.
			sw := df.Net.Router(df.Switches[w][s])
			out := df.globalPort[w][s][k]
			op := df.Net.OutPorts(sw)[out]
			if op.Link < 0 {
				t.Fatalf("no link at global port (%d,%d,%d)", w, s, k)
			}
			if got := df.Net.Router(op.Dst).WGroup; got != int32(wd) {
				t.Fatalf("global owner (%d→%d): port leads to group %d", w, wd, got)
			}
		}
	}
}

func TestDragonflyRejectsPartial(t *testing.T) {
	if err := (DragonflyParams{P: 2, A: 3, H: 2, G: 5}).Validate(); err == nil {
		t.Fatal("non-maximal G must be rejected")
	}
	if err := (DragonflyParams{P: 2, A: 3, H: 2, G: 1}).Validate(); err != nil {
		t.Fatalf("single-group dragonfly should validate: %v", err)
	}
}

func TestSLDFParamsPaperConfigs(t *testing.T) {
	r16 := SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 8, H: 5}
	if r16.Groups() != 41 || r16.Chips() != 1312 {
		t.Fatalf("radix-16: g=%d chips=%d, want 41/1312", r16.Groups(), r16.Chips())
	}
	if r16.ExternalPorts() != 12 {
		t.Fatalf("radix-16 k=%d, want 12", r16.ExternalPorts())
	}
	r32 := SLDFParams{NoCDim: 2, ChipCols: 4, ChipRows: 2, AB: 16, H: 9}
	if r32.Groups() != 145 || r32.Chips() != 18560 {
		t.Fatalf("radix-32: g=%d chips=%d, want 145/18560", r32.Groups(), r32.Chips())
	}
	if r32.ExternalPorts() != 24 {
		t.Fatalf("radix-32 k=%d, want 24", r32.ExternalPorts())
	}
}

// smallSLDF returns a small but fully-featured configuration: g = 2*2+1 = 5.
func smallSLDF(layout PortLayout) SLDFParams {
	return SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 2, H: 2, Layout: layout}
}

func TestSLDFStructureSmall(t *testing.T) {
	for _, layout := range []PortLayout{LayoutPerimeter, LayoutSouthNorth} {
		p := smallSLDF(layout)
		s, err := BuildSLDF(p, DefaultLinkClasses(4, 1), opts())
		if err != nil {
			t.Fatal(err)
		}
		g := p.Groups()
		wantCores := g * p.AB * p.MeshX() * p.MeshY()
		wantPorts := g * p.AB * p.ExternalPorts()
		if got := len(s.Net.Routers); got != wantCores+wantPorts {
			t.Fatalf("layout %d: routers %d, want %d cores + %d ports",
				layout, got, wantCores, wantPorts)
		}
		if s.Net.NumChips() != p.Chips() {
			t.Fatalf("chips %d, want %d", s.Net.NumChips(), p.Chips())
		}
		// Every core must have a direction table and a terminal.
		for i := range s.Net.Routers {
			r := &s.Net.Routers[i]
			if r.Kind == netsim.KindCore {
				if r.InjIn < 0 || r.EjectOut < 0 {
					t.Fatalf("core %d missing terminal", i)
				}
			}
			if r.Kind == netsim.KindPort {
				// Exactly 2 links: attach + external.
				if in, out := len(s.Net.InLinks(r)), len(s.Net.OutPorts(r)); out != 2 || in != 2 {
					t.Fatalf("port node %d has %d/%d ports, want 2/2", i, in, out)
				}
			}
		}
		s.Net.Close()
	}
}

func TestSLDFLocalWiring(t *testing.T) {
	p := smallSLDF(LayoutPerimeter)
	s, err := BuildSLDF(p, DefaultLinkClasses(4, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	g := p.Groups()
	for w := 0; w < g; w++ {
		for c1 := 0; c1 < p.AB; c1++ {
			for c2 := 0; c2 < p.AB; c2++ {
				if c1 == c2 {
					continue
				}
				pi := s.CGroups[w][c1].LocalPorts[c2]
				if pi.PortExt < 0 {
					t.Fatalf("local port (%d,%d→%d) not wired", w, c1, c2)
				}
				r := s.Net.Router(pi.Node)
				l := &s.Net.Links[s.Net.OutPorts(r)[pi.PortExt].Link]
				peer := s.Net.Router(l.Dst)
				if peer.WGroup != int32(w) || peer.CGroup != int32(c2) {
					t.Fatalf("local port (%d,%d→%d) reaches (%d,%d)",
						w, c1, c2, peer.WGroup, peer.CGroup)
				}
				if l.Class != netsim.HopLongLocal {
					t.Fatalf("local link class %v", l.Class)
				}
			}
		}
	}
}

func TestSLDFGlobalWiring(t *testing.T) {
	p := smallSLDF(LayoutPerimeter)
	s, err := BuildSLDF(p, DefaultLinkClasses(4, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	g := p.Groups()
	// Every ordered pair of W-groups must be reachable by the owner tables.
	for w := 0; w < g; w++ {
		for wd := 0; wd < g; wd++ {
			if w == wd {
				continue
			}
			c, j := s.GlobalChannelOwner(w, wd)
			pi := s.CGroups[w][c].GlobalPorts[j]
			if pi.PortExt < 0 {
				t.Fatalf("global port (%d,%d,%d) not wired", w, c, j)
			}
			r := s.Net.Router(pi.Node)
			peer := s.Net.Router(s.Net.OutPorts(r)[pi.PortExt].Dst)
			if peer.WGroup != int32(wd) {
				t.Fatalf("channel %d→%d lands in W-group %d", w, wd, peer.WGroup)
			}
			// EntryCGroup must agree with the actual landing C-group.
			if got := s.EntryCGroup(w, wd); int32(got) != peer.CGroup {
				t.Fatalf("EntryCGroup(%d,%d)=%d, actual %d", w, wd, got, peer.CGroup)
			}
		}
	}
}

func TestSLDFSingleWGroup(t *testing.T) {
	p := SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 8, H: 5, G: 1}
	s, err := BuildSLDF(p, DefaultLinkClasses(4, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	if s.Net.NumChips() != 32 {
		t.Fatalf("single W-group chips = %d, want 32", s.Net.NumChips())
	}
	for _, l := range s.Net.Links {
		if l.Class == netsim.HopGlobal {
			t.Fatal("single W-group must have no global links")
		}
	}
}

func TestSLDFChipLocationRoundTrip(t *testing.T) {
	p := smallSLDF(LayoutPerimeter)
	s, err := BuildSLDF(p, DefaultLinkClasses(4, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	f := func(chipRaw uint16) bool {
		chip := int32(int(chipRaw) % p.Chips())
		w, c, chiplet := s.ChipLocation(chip)
		// All terminal nodes of the chip must sit in (w, c).
		for _, id := range s.Net.ChipNodes[chip] {
			r := s.Net.Router(id)
			if r.WGroup != int32(w) || r.CGroup != int32(c) {
				return false
			}
		}
		return chiplet >= 0 && chiplet < p.ChipsPerCGroup()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSLDFSouthNorthAttachRows(t *testing.T) {
	p := smallSLDF(LayoutSouthNorth)
	s, err := BuildSLDF(p, DefaultLinkClasses(4, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	my := p.MeshY()
	for w := 0; w < p.Groups(); w++ {
		for c := 0; c < p.AB; c++ {
			cg := &s.CGroups[w][c]
			for peer, pi := range cg.LocalPorts {
				if peer == c || pi.Node == 0 && pi.AttachCore == 0 {
					continue
				}
				if y := s.Net.Router(pi.AttachCore).Y; y != int16(my-1) {
					t.Fatalf("local port attach row %d, want %d", y, my-1)
				}
			}
			for _, pi := range cg.GlobalPorts {
				if y := s.Net.Router(pi.AttachCore).Y; y != 0 {
					t.Fatalf("global port attach row %d, want 0", y)
				}
			}
		}
	}
}

func TestSLDFInvariantsRandomParams(t *testing.T) {
	f := func(noc, cols, rows, ab, h uint8) bool {
		p := SLDFParams{
			NoCDim:   int(noc%2) + 1,
			ChipCols: int(cols%2) + 1,
			ChipRows: int(rows%2) + 1,
			AB:       int(ab%3) + 1,
			H:        int(h%2) + 1,
		}
		if p.MeshX() < 2 || p.MeshY() < 2 {
			return true // builder rejects; not this test's concern
		}
		if p.Groups() > 9 { // keep runtime bounded
			return true
		}
		s, err := BuildSLDF(p, DefaultLinkClasses(4, 1), opts())
		if err != nil {
			return false
		}
		defer s.Net.Close()
		// Node count invariant.
		want := p.Groups() * p.AB * (p.MeshX()*p.MeshY() + p.ExternalPorts())
		return len(s.Net.Routers) == want && s.Net.NumChips() == p.Chips()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPerimeterSlots(t *testing.T) {
	slots := perimeterSlots(4, 4)
	if len(slots) != 12 {
		t.Fatalf("perimeter of 4x4 = %d, want 12", len(slots))
	}
	seen := map[[2]int]bool{}
	for _, s := range slots {
		if seen[s] {
			t.Fatalf("duplicate perimeter slot %v", s)
		}
		seen[s] = true
		if s[0] != 0 && s[0] != 3 && s[1] != 0 && s[1] != 3 {
			t.Fatalf("slot %v not on perimeter", s)
		}
	}
}
