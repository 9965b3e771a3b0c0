// Package routing implements the paper's routing algorithms:
//
//   - minimal and Valiant (non-minimal) routing for the switch-based
//     Dragonfly baseline (Kim et al.): 2 and 3 virtual channels;
//   - Algorithm 1, the baseline minimal/non-minimal routing for the
//     switch-less Dragonfly: one VC per C-group traversal (4 / 6 VCs);
//   - the reduced-VC scheme (Sec. IV-B): the two C-group traversals inside
//     the destination W-group share one VC (3 VCs minimal, 4 non-minimal).
//
// The reduced scheme realizes the paper's up*/down* idea with a concrete,
// provably deadlock-free construction (see ReducedVCScheme docs): inside a
// merged-VC W-group, packets route row-column-row between dedicated attach
// rows, which makes the channel dependency graph acyclic by geometry. The
// cdg.go checker verifies acyclicity computationally for any configuration.
//
// Fault-aware routing must be a pure function of the component state: the
// network builds it once per fault state and reuses it whenever the state
// recurs (netsim.SetFaultRouting). sldfcheck therefore flags map iteration,
// global RNG and wall-clock reads in non-test code.
//
//sldf:deterministic
package routing

import "fmt"

// Mode selects minimal or non-minimal (Valiant) routing.
type Mode uint8

const (
	// Minimal routes every packet along a shortest Dragonfly path.
	Minimal Mode = iota
	// Valiant misroutes every inter-W-group packet through a uniformly
	// random intermediate W-group (the paper's "Mis" curves).
	Valiant
	// ValiantLower restricts misrouting to intermediate W-groups with a
	// lower index than the destination (paper Sec. IV-B, Fig. 7): the
	// intermediate W-group then shares the destination's merged VC, so
	// non-minimal routing needs no additional virtual channel. Only valid
	// with the ReducedVC scheme; packets without a valid lower intermediate
	// fall back to minimal routing.
	ValiantLower
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Valiant:
		return "valiant"
	case ValiantLower:
		return "valiant-lower"
	case Minimal:
		return "minimal"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Scheme selects the virtual-channel discipline for the switch-less
// Dragonfly.
type Scheme uint8

const (
	// BaselineVC is Algorithm 1's discipline: a fresh VC for every C-group
	// traversal (4 VCs minimal, 6 VCs non-minimal).
	BaselineVC Scheme = iota
	// ReducedVC merges the destination W-group's two C-group traversals
	// into one VC (3 VCs minimal, 4 non-minimal), the paper's headline
	// VC reduction. Requires topology.LayoutSouthNorth.
	ReducedVC
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case BaselineVC:
		return "baseline"
	case ReducedVC:
		return "reduced"
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// SLDFVCCount returns the number of virtual channels the scheme/mode pair
// needs on every link of a switch-less Dragonfly.
func SLDFVCCount(s Scheme, m Mode) uint8 {
	switch {
	case s == BaselineVC && m == Minimal:
		return 4
	case s == BaselineVC && m == Valiant:
		return 6
	case s == ReducedVC && m == Minimal:
		return 3
	case s == ReducedVC && m == ValiantLower:
		// The lower-index restriction merges the intermediate W-group onto
		// the destination VC: non-minimal routing at the minimal VC count.
		return 3
	default: // ReducedVC with Valiant
		return 4
	}
}

// DragonflyVCCount returns the VCs needed by the switch-based baseline.
func DragonflyVCCount(m Mode) uint8 {
	if m == Valiant {
		return 3
	}
	return 2
}

// legs of an SLDF journey, one per C-group traversal (paper Sec. IV-A).
const (
	legSrcC     = 0 // source C-group (source W-group)
	legSrcWMid  = 1 // channel-owning C-group of the source W-group
	legIntEntry = 2 // entry C-group of the intermediate W-group (Valiant)
	legIntExit  = 3 // exit C-group of the intermediate W-group (Valiant)
	legDstEntry = 4 // entry C-group of the destination W-group
	legDstC     = 5 // destination C-group
)

// vcMapFor returns the leg→VC map for a scheme/mode pair.
func vcMapFor(s Scheme, m Mode) [6]uint8 {
	switch {
	case s == BaselineVC && m == Minimal:
		return [6]uint8{0, 1, 0, 0, 2, 3} // legs 2,3 unreachable
	case s == BaselineVC && m == Valiant:
		return [6]uint8{0, 1, 2, 3, 4, 5}
	case s == ReducedVC && m == Minimal:
		return [6]uint8{0, 1, 0, 0, 2, 2}
	case s == ReducedVC && m == ValiantLower:
		// Intermediate and destination W-groups share VC-2 (Fig. 7's
		// restricted-misroute case).
		return [6]uint8{0, 1, 2, 2, 2, 2}
	default: // ReducedVC with Valiant: paper Fig. 7 numbering —
		// VC-3 at the intermediate W-group, VC-2 at the destination.
		return [6]uint8{0, 1, 3, 3, 2, 2}
	}
}

func validateMode(m Mode) error {
	if m != Minimal && m != Valiant && m != ValiantLower {
		return fmt.Errorf("routing: unknown mode %d", m)
	}
	return nil
}
