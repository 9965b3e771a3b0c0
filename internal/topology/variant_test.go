package topology

import (
	"testing"

	"sldf/internal/netsim"
)

// TestSmallScaleVariant333 validates the paper's Sec. III-D1 claim: "a
// single-chiplet C-group with only 12 external ports can be used to build a
// system of up to 333 chips". The maximum over ab-1+h = 12 is ab=9, h=4:
// 9 C-groups × (9·4+1) W-groups = 333 chiplets.
func TestSmallScaleVariant333(t *testing.T) {
	best, bestAB := 0, 0
	for ab := 2; ab <= 12; ab++ {
		h := 12 - (ab - 1)
		if h < 1 {
			continue
		}
		n := ab * (ab*h + 1)
		if n > best {
			best, bestAB = n, ab
		}
	}
	if best != 333 || bestAB != 9 {
		t.Fatalf("max single-chiplet system = %d chips at ab=%d, want 333 at 9", best, bestAB)
	}
	// And the topology actually builds: one chiplet per C-group.
	p := SLDFParams{NoCDim: 2, ChipCols: 1, ChipRows: 1, AB: 9, H: 4}
	s, err := BuildSLDF(p, DefaultLinkClasses(4, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	if s.Net.NumChips() != 333 {
		t.Fatalf("built %d chips, want 333", s.Net.NumChips())
	}
	if p.ExternalPorts() != 12 {
		t.Fatalf("k = %d, want 12", p.ExternalPorts())
	}
}

// TestPortLabelOrderProperty2 checks the paper's Property 2 wiring order on
// the perimeter layout: walking the port labels of a C-group must first
// meet local ports to lower C-groups, then global ports, then local ports
// to higher C-groups.
func TestPortLabelOrderProperty2(t *testing.T) {
	p := SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 4, H: 3}
	s, err := BuildSLDF(p, DefaultLinkClasses(4, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	coords := p.portAttachCoords(2) // C-group index 2 of 4
	// Expect: locals to 0,1 | globals ×3 | locals to 3.
	if len(coords) != p.ExternalPorts() {
		t.Fatalf("coords = %d, want %d", len(coords), p.ExternalPorts())
	}
	cg := &s.CGroups[0][2]
	// The wiring must agree with the canonical order: LocalPorts[0] and
	// LocalPorts[1] were assigned the first two coordinates.
	for peer := 0; peer < 2; peer++ {
		attach := s.Net.Router(cg.LocalPorts[peer].AttachCore)
		if int(attach.X) != coords[peer][0] || int(attach.Y) != coords[peer][1] {
			t.Fatalf("local port %d attached at (%d,%d), want %v",
				peer, attach.X, attach.Y, coords[peer])
		}
	}
	for j := 0; j < 3; j++ {
		attach := s.Net.Router(cg.GlobalPorts[j].AttachCore)
		want := coords[2+j]
		if int(attach.X) != want[0] || int(attach.Y) != want[1] {
			t.Fatalf("global port %d attached at (%d,%d), want %v",
				j, attach.X, attach.Y, want)
		}
	}
	attach := s.Net.Router(cg.LocalPorts[3].AttachCore)
	if int(attach.X) != coords[5][0] || int(attach.Y) != coords[5][1] {
		t.Fatalf("local port 3 attached at (%d,%d), want %v", attach.X, attach.Y, coords[5])
	}
}

// TestRectangularCGroup checks the radix-32-class rectangular C-group shape
// (4×2 chiplets, 8×4 router mesh).
func TestRectangularCGroup(t *testing.T) {
	p := SLDFParams{NoCDim: 2, ChipCols: 4, ChipRows: 2, AB: 16, H: 9, G: 1}
	if p.MeshX() != 8 || p.MeshY() != 4 {
		t.Fatalf("mesh %dx%d, want 8x4", p.MeshX(), p.MeshY())
	}
	s, err := BuildSLDF(p, DefaultLinkClasses(4, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	if s.Net.NumChips() != 16*8 {
		t.Fatalf("chips = %d, want 128", s.Net.NumChips())
	}
	// Chips must each own 4 cores in a 2x2 block.
	for c, nodes := range s.Net.ChipNodes {
		if len(nodes) != 4 {
			t.Fatalf("chip %d has %d cores", c, len(nodes))
		}
	}
	// Mesh degree invariants inside a C-group: corners 2, edges 3, inner 4
	// (port attach links excluded by counting only core-to-core links).
	cg := s.CGroups[0][0]
	deg := func(id netsim.NodeID) int {
		r := s.Net.Router(id)
		n := 0
		for _, op := range s.Net.OutPorts(r) {
			if op.Link >= 0 && s.Net.Router(op.Dst).Kind == netsim.KindCore {
				n++
			}
		}
		return n
	}
	if d := deg(cg.Cores[0][0]); d != 2 {
		t.Fatalf("corner degree %d", d)
	}
	if d := deg(cg.Cores[0][3]); d != 3 {
		t.Fatalf("edge degree %d", d)
	}
	if d := deg(cg.Cores[1][3]); d != 4 {
		t.Fatalf("interior degree %d", d)
	}
}

// TestWGroupLocalDiameter verifies the paper's structural claim that all
// C-groups in a W-group are exactly one local hop apart (all-to-all).
func TestWGroupLocalDiameter(t *testing.T) {
	p := SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 5, H: 2}
	s, err := BuildSLDF(p, DefaultLinkClasses(4, 1), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	for w := 0; w < p.Groups(); w++ {
		for c1 := 0; c1 < p.AB; c1++ {
			reach := map[int32]bool{}
			for c2 := 0; c2 < p.AB; c2++ {
				if c1 == c2 {
					continue
				}
				pi := s.CGroups[w][c1].LocalPorts[c2]
				peer := s.Net.Router(s.Net.OutPorts(s.Net.Router(pi.Node))[pi.PortExt].Dst)
				reach[peer.CGroup] = true
			}
			if len(reach) != p.AB-1 {
				t.Fatalf("C-group (%d,%d) reaches %d peers, want %d",
					w, c1, len(reach), p.AB-1)
			}
		}
	}
}
