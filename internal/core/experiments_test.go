package core

import (
	"testing"

	"sldf/internal/engine"
)

// The full experiment campaign is exercised by cmd/sldffigures; these tests
// run the cheap registry experiments end-to-end at quick scale and assert
// the paper's qualitative results on the produced series.

// runQuick runs the registered experiment name at quick scale.
func runQuick(t *testing.T, name string) ExperimentResult {
	t.Helper()
	spec, ok := LookupExperiment(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	res, err := RunExperiment(spec, ScaleQuick, RunOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFig10Runner(t *testing.T) {
	res := runQuick(t, "10")
	figs := res.Figures
	if len(figs) != 6 {
		t.Fatalf("Fig10 produced %d sub-figures, want 6", len(figs))
	}
	byName := map[string][]float64{}
	for _, f := range figs {
		if len(f.Series) < 2 {
			t.Fatalf("%s has %d series", f.Name, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.Points) == 0 {
				t.Fatalf("%s/%s empty", f.Name, s.Label)
			}
			byName[f.Name+"/"+s.Label] = []float64{s.Saturation(3), s.MaxThroughput()}
		}
	}
	// Fig. 10(a): the mesh C-group clearly outperforms the switch.
	if byName["fig10a/2d-mesh"][1] < 2*byName["fig10a/switch"][1] {
		t.Fatalf("fig10a: mesh %v vs switch %v", byName["fig10a/2d-mesh"], byName["fig10a/switch"])
	}
	// Fig. 10(c): SW-less-2B accepts more than SW-based.
	if byName["fig10c/sw-less-2B"][1] <= byName["fig10c/sw-based"][1] {
		t.Fatalf("fig10c: 2B %v vs sw-based %v", byName["fig10c/sw-less-2B"], byName["fig10c/sw-based"])
	}
	// Fig. 10(e): bit-shuffle is bounded by inter-C-group links; 2B gives
	// no meaningful advantage over SW-based (within 15%).
	if byName["fig10e/sw-less-2B"][1] > 1.15*byName["fig10e/sw-based"][1] {
		t.Fatalf("fig10e: unexpected 2B advantage: %v vs %v",
			byName["fig10e/sw-less-2B"], byName["fig10e/sw-based"])
	}
}

func TestFig14Runner(t *testing.T) {
	res := runQuick(t, "14")
	figs := res.Figures
	if len(figs) != 2 {
		t.Fatalf("Fig14 produced %d figures", len(figs))
	}
	a := figs[0]
	if a.Name != "fig14a" || len(a.Series) != 4 {
		t.Fatalf("fig14a malformed: %s/%d", a.Name, len(a.Series))
	}
	get := func(label string) float64 {
		for _, s := range a.Series {
			if s.Label == label {
				return s.MaxThroughput()
			}
		}
		t.Fatalf("missing series %s", label)
		return 0
	}
	// Paper Fig. 14(a): sw-based capped at ~1 regardless of direction;
	// sw-less ~2 (uni) and higher still (bi).
	if get("sw-less-uni") < 1.5*get("sw-based-uni") {
		t.Fatalf("uni: sw-less %v vs sw-based %v", get("sw-less-uni"), get("sw-based-uni"))
	}
	if get("sw-less-bi") < get("sw-less-uni") {
		t.Fatalf("bi %v below uni %v on sw-less", get("sw-less-bi"), get("sw-less-uni"))
	}
	b := figs[1]
	if b.Name != "fig14b" || len(b.Series) != 5 {
		t.Fatalf("fig14b malformed: %s/%d", b.Name, len(b.Series))
	}
}

func TestGridHelpers(t *testing.T) {
	g := RateGrid(0.1, 0.5, 0.1)
	if len(g) != 5 {
		t.Fatalf("grid = %v", g)
	}
	if got := ScaleQuick.rates(0.1, 1.0, 0.1); len(got) != 5 {
		t.Fatalf("quick rates = %v", got)
	}
	if got := ScalePaper.rates(0.1, 1.0, 0.1); len(got) != 10 {
		t.Fatalf("paper rates = %v", got)
	}
}

func TestSystemLabelsUnique(t *testing.T) {
	// Every distinct configuration used by the experiment runners must
	// produce a distinct label (they become CSV column names).
	labels := map[string]bool{}
	for _, cfg := range []Config{
		{Kind: SwitchDragonfly, DF: Radix16DF()},
		{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF()},
		{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), IntraWidth: 2},
		{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), IntraWidth: 4},
	} {
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if labels[sys.Label] {
			t.Fatalf("duplicate label %q", sys.Label)
		}
		labels[sys.Label] = true
		sys.Close()
	}
}

func TestEnergyBarStructure(t *testing.T) {
	b := EnergyBar{Label: "x", Intra: 2.5, Inter: 40}
	if b.Total() != 42.5 {
		t.Fatalf("total %v", b.Total())
	}
}

func TestRingPatternSnakeOnMesh(t *testing.T) {
	sys, err := Build(Config{Kind: MeshCGroup, ChipletDim: 3, NoCDim: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pat, err := sys.PatternFor("ring")
	if err != nil {
		t.Fatal(err)
	}
	// Walk the ring from chip 0: it must visit all 9 chips and return.
	rng := engine.NewRNGStream(sys.Cfg.Seed, 0) // router 0's stream
	cur := int32(0)
	seen := map[int32]bool{0: true}
	for i := 0; i < 9; i++ {
		cur = pat.Dest(cur, &rng)
		if cur < 0 || cur >= 9 {
			t.Fatalf("ring left chip range: %d", cur)
		}
		seen[cur] = true
	}
	if len(seen) != 9 || cur != 0 {
		t.Fatalf("ring did not cover all chips and close: %v end=%d", seen, cur)
	}
}
