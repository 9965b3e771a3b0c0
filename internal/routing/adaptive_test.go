package routing

import (
	"testing"

	"sldf/internal/netsim"
	"sldf/internal/topology"
	"sldf/internal/traffic"
)

func TestAdaptiveCDGAcyclic(t *testing.T) {
	// Adaptive packets take either the minimal or any Valiant path; the
	// dependency graph is the union of both, which must stay acyclic.
	for _, scheme := range []Scheme{BaselineVC, ReducedVC} {
		s, sr := smallSLDF(t, scheme, Adaptive)
		wOf := func(chip int32) int32 {
			w, _, _ := s.ChipLocation(chip)
			return int32(w)
		}
		unionAux := func(src, dst int32) []int32 {
			out := []int32{-1} // minimal path
			ws, wd := wOf(src), wOf(dst)
			if ws != wd {
				for w := int32(0); w < int32(s.Params.Groups()); w++ {
					if w != ws && w != wd {
						out = append(out, w)
					}
				}
			}
			return out
		}
		g, err := BuildCDG(s.Net, sr.Func(), int(sr.VCs()), unionAux)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if cyc, witness := g.HasCycle(); cyc {
			t.Fatalf("%v/adaptive: dependency cycle %v", scheme, witness)
		}
		s.Net.Close()
	}
}

// adaptiveThroughput builds a radix-16-lite system and measures accepted
// throughput under the given pattern/mode.
func adaptiveThroughput(t *testing.T, mode Mode, patName string, rate float64) float64 {
	t.Helper()
	sys, router := smallSLDF(t, BaselineVC, mode)
	defer sys.Net.Close()
	router.Install(sys.Net)
	chips := int32(sys.Net.NumChips())
	chipsPerGroup := chips / int32(sys.Params.Groups())
	var pat traffic.Pattern
	switch patName {
	case "uniform":
		pat = traffic.Uniform{N: chips}
	case "worst-case":
		pat = traffic.WorstCase{ChipsPerGroup: chipsPerGroup, Groups: int32(sys.Params.Groups())}
	}
	var gen traffic.Rate
	gen.Init(pat, rate, 4, len(sys.Net.ChipNodes[0]))
	sys.Net.SetTraffic(&gen, 4, netsim.DstSameIndex)
	if err := sys.Net.Run(400); err != nil {
		t.Fatal(err)
	}
	sys.Net.StartMeasurement()
	if err := sys.Net.Run(900); err != nil {
		t.Fatal(err)
	}
	sys.Net.StopMeasurement()
	st := sys.Net.Snapshot()
	return st.Throughput()
}

func TestAdaptiveBeatsMinimalOnWorstCase(t *testing.T) {
	tMin := adaptiveThroughput(t, Minimal, "worst-case", 0.3)
	tAda := adaptiveThroughput(t, Adaptive, "worst-case", 0.3)
	if tAda < 1.2*tMin {
		t.Fatalf("adaptive %v did not clearly beat minimal %v on worst-case", tAda, tMin)
	}
}

func TestAdaptiveMatchesMinimalOnUniform(t *testing.T) {
	// The UGAL promise: under benign traffic the adaptive router should
	// mostly choose minimal paths and stay close to minimal throughput.
	tMin := adaptiveThroughput(t, Minimal, "uniform", 0.4)
	tAda := adaptiveThroughput(t, Adaptive, "uniform", 0.4)
	if tAda < 0.85*tMin {
		t.Fatalf("adaptive %v collapsed vs minimal %v on uniform", tAda, tMin)
	}
}

func TestAdaptiveVCBudget(t *testing.T) {
	if SLDFVCCount(BaselineVC, Adaptive) != 6 || SLDFVCCount(ReducedVC, Adaptive) != 4 {
		t.Fatalf("adaptive VC budgets: %d/%d",
			SLDFVCCount(BaselineVC, Adaptive), SLDFVCCount(ReducedVC, Adaptive))
	}
}

// TestAdaptiveSnapshotIdleIsZeroWithSmallBuffers pins the UGAL-G occupancy
// snapshot to each link's own buffer depth: on an idle network every
// credit is free, so every global channel must read zero occupancy
// whatever the buffers hold (not Table IV's 32 flits minus 16 free).
func TestAdaptiveSnapshotIdleIsZeroWithSmallBuffers(t *testing.T) {
	p := topology.SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 2, H: 2, Layout: topology.LayoutPerimeter}
	lc := topology.DefaultLinkClasses(SLDFVCCount(BaselineVC, Adaptive), 1)
	for _, spec := range []*netsim.LinkSpec{&lc.OnChip, &lc.SR, &lc.Local, &lc.Global} {
		spec.BufFlits = 16
	}
	s, err := topology.BuildSLDF(p, lc, opts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Net.Close()
	sr, err := NewSLDFRouter(s, BaselineVC, Adaptive)
	if err != nil {
		t.Fatal(err)
	}
	sr.Install(s.Net)
	s.Net.Step() // no traffic: the pre-allocate hook snapshots an idle network
	channels := 0
	for w, occ := range sr.occ.occ {
		for g, used := range occ {
			if used != 0 {
				t.Fatalf("idle W-group %d global channel %d snapshots %d flits, want 0", w, g, used)
			}
			channels++
		}
	}
	if channels == 0 {
		t.Fatal("snapshot holds no global channels; the check is vacuous")
	}
}
