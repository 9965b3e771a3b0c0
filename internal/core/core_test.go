package core

import (
	"testing"

	"sldf/internal/routing"
	"sldf/internal/traffic"
)

// tiny simulation parameters for unit tests.
func tinySim() SimParams {
	return SimParams{Warmup: 200, Measure: 400, ExtraDrain: 200, PacketSize: 4}
}

func TestBuildAllKinds(t *testing.T) {
	cfgs := map[string]Config{
		"switch":   {Kind: SingleSwitch, Terminals: 4, Seed: 1},
		"mesh":     {Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1},
		"sw-based": {Kind: SwitchDragonfly, DF: Radix16DF(), Seed: 1},
		"sw-less":  {Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 1},
	}
	want := map[string]int{"switch": 4, "mesh": 4, "sw-based": 1312, "sw-less": 1312}
	for name, cfg := range cfgs {
		sys, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sys.Chips != want[name] {
			t.Fatalf("%s: chips = %d, want %d", name, sys.Chips, want[name])
		}
		sys.Close()
	}
}

func TestBuildRejectsBadWidth(t *testing.T) {
	cfg := Config{Kind: SingleSwitch, Terminals: 4, IntraWidth: 3}
	if _, err := Build(cfg); err == nil {
		t.Fatal("IntraWidth 3 must be rejected")
	}
}

func TestLabels(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Kind: SwitchDragonfly, DF: Radix16DF()}, "sw-based"},
		{Config{Kind: SwitchDragonfly, DF: Radix16DF(), Mode: routing.Valiant}, "sw-based-mis"},
		{Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF()}, "sw-less"},
		{Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), IntraWidth: 2}, "sw-less-2B"},
		{Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Mode: routing.Valiant}, "sw-less-mis"},
		{Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Scheme: routing.ReducedVC}, "sw-less-rvc"},
	}
	for _, c := range cases {
		sys, err := Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sys.Label != c.want {
			t.Fatalf("label %q, want %q", sys.Label, c.want)
		}
		sys.Close()
	}
}

func TestMeasureLoadSane(t *testing.T) {
	sys, err := Build(Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pat, err := sys.PatternFor("uniform")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.MeasureLoad(pat, 0.5, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	if res.Point.Latency <= 0 {
		t.Fatalf("non-positive latency %v", res.Point.Latency)
	}
	// Accepted throughput should track offered load below saturation.
	if res.Point.Throughput < 0.4 || res.Point.Throughput > 0.6 {
		t.Fatalf("throughput %v at offered 0.5", res.Point.Throughput)
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestSweepMonotoneLoad(t *testing.T) {
	cfg := Config{Kind: SingleSwitch, Terminals: 4, Seed: 4}
	s, err := runSeries(cfg, "uniform", []float64{0.2, 0.6, 1.4}, tinySim(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// Latency must be non-decreasing with offered load (heavily congested
	// last point).
	if !(s.Points[0].Latency <= s.Points[1].Latency &&
		s.Points[1].Latency < s.Points[2].Latency) {
		t.Fatalf("latency not increasing with load: %+v", s.Points)
	}
	// The switch cannot accept more than ~1 flit/cycle/chip.
	if s.Points[2].Throughput > 1.1 {
		t.Fatalf("switch accepted %v > capacity", s.Points[2].Throughput)
	}
}

func TestPatternForScoping(t *testing.T) {
	sys, err := Build(Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Groups != 41 || sys.ChipsPerGroup != 32 {
		t.Fatalf("groups=%d chipsPerGroup=%d", sys.Groups, sys.ChipsPerGroup)
	}
	pat, err := sys.PatternFor("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	hs := pat.(traffic.Hotspot)
	if len(hs.HotGroups) != 4 || hs.ChipsPerGroup != 32 {
		t.Fatalf("hotspot misconfigured: %+v", hs)
	}
	if _, err := sys.PatternFor("worst-case"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.PatternFor("nope"); err == nil {
		t.Fatal("unknown pattern must error")
	}
}

func TestSwitchlessBeatsSwitchIntraCGroup(t *testing.T) {
	// The Fig. 10(a) headline at test scale: the mesh C-group accepts ≥2×
	// the per-chip throughput of the single switch at high offered load.
	sp := tinySim()
	sw, err := runSeries(Config{Kind: SingleSwitch, Terminals: 4, Seed: 6},
		"uniform", []float64{2.5}, sp, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := runSeries(Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 6},
		"uniform", []float64{2.5}, sp, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Points[0].Throughput < 2*sw.Points[0].Throughput {
		t.Fatalf("mesh %v vs switch %v flits/cycle/chip",
			mesh.Points[0].Throughput, sw.Points[0].Throughput)
	}
}

func TestReducedVCSchemeRuns(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(),
		Scheme: routing.ReducedVC, Seed: 7}
	cfg.SLDF.G = 1 // keep the test fast: one W-group
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pat, _ := sys.PatternFor("uniform")
	res, err := sys.MeasureLoad(pat, 0.6, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DeliveredPkts == 0 {
		t.Fatal("reduced scheme delivered nothing")
	}
}

func TestValiantHelpsWorstCase(t *testing.T) {
	// Fig. 13(b): under the Wi→Wi+1 worst case, minimal routing is capped
	// by the single direct global channel (1/(40·…) of capacity at
	// radix-16) while Valiant spreads over all channels.
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 8}
	sp := tinySim()
	rate := []float64{0.2}
	minS, err := runSeries(cfg, "worst-case", rate, sp, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	val := cfg
	val.Mode = routing.Valiant
	valS, err := runSeries(val, "worst-case", rate, sp, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Non-minimal routing must accept several times more worst-case traffic.
	if valS.Points[0].Throughput < 3*minS.Points[0].Throughput {
		t.Fatalf("valiant %v vs minimal %v under worst-case",
			valS.Points[0].Throughput, minS.Points[0].Throughput)
	}
}

func TestScaleSimParams(t *testing.T) {
	if ScalePaper.Sim().Warmup != 5000 || ScalePaper.Sim().Measure != 10000 {
		t.Fatal("paper scale must use Table IV windows")
	}
	if q := ScaleQuick.Sim(); q.Measure >= ScalePaper.Sim().Measure {
		t.Fatal("quick scale must be smaller")
	}
	if got := len((ScaleQuick).rates(0.1, 1.0, 0.1)); got >= len((ScalePaper).rates(0.1, 1.0, 0.1)) {
		t.Fatal("quick rate grid must be thinner")
	}
}
