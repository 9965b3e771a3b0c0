package core

import (
	"fmt"
	"strings"
	"testing"

	"sldf/internal/metrics"
	"sldf/internal/netsim"
)

// TestResilienceSweepChurn pins the RunOptions.Churn seam (sldffigures
// -churn): a non-empty timeline must reach every network a resilience
// figure builds, measurably degrading the fault grid relative to the same
// figure without it. Both runs are deterministic, so inequality is a
// stable assertion, not a statistical one.
func TestResilienceSweepChurn(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 5}
	cfg.SLDF.G = 1
	opts := ResilienceOpts{
		Fractions: []float64{0, 0.05},
		Seeds:     []uint64{1},
		Pattern:   "uniform",
		Rate:      0.4,
		Sim:       tinySim(),
	}
	base, err := resilienceCurve(cfg, opts, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	churned, err := resilienceCurve(cfg, opts, RunOptions{Churn: churnWindow(0.03, 0, netsim.DropInFlight)})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Points) != len(churned.Points) || len(base.Points) == 0 {
		t.Fatalf("sweep shapes diverged: %d vs %d points", len(base.Points), len(churned.Points))
	}
	same := true
	for i := range base.Points {
		if base.Points[i] != churned.Points[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("RunOptions.Churn changed nothing: the timeline never reached the built networks\n%+v", churned.Points)
	}
}

// TestChurnCountersSurface is the regression test for the churn-accounting
// gap: netsim's dropped/retried/refused counters must flow into
// metrics.Point and from there into Figure.CSV's per-series churn columns —
// a churn sweep that silently reports zero losses hides exactly the effect
// it measures. Churn-free figures must keep their historical CSV shape.
func TestChurnCountersSurface(t *testing.T) {
	cfg := Config{Kind: MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: 5}
	cfg.Churn = churnWindow(0.05, 0.02, netsim.RetrySource)
	res := measureEngine(t, cfg, "uniform", 0.8, netsim.EngineActiveSet)
	st := res.Stats
	if st.DroppedPkts+st.RetriedPkts+st.RefusedPkts == 0 {
		t.Fatal("timeline perturbed nothing; the surfacing test is vacuous")
	}
	if res.Point.Dropped != st.DroppedPkts ||
		res.Point.Retried != st.RetriedPkts ||
		res.Point.Refused != st.RefusedPkts {
		t.Fatalf("Point counters diverge from Stats: point {%d %d %d}, stats {%d %d %d}",
			res.Point.Dropped, res.Point.Retried, res.Point.Refused,
			st.DroppedPkts, st.RetriedPkts, st.RefusedPkts)
	}

	fig := metrics.Figure{Name: "churned", Series: []metrics.Series{
		{Label: "mesh", Points: []metrics.Point{res.Point}},
	}}
	csv := fig.CSV()
	if !strings.Contains(csv, "mesh_dropped,mesh_retried,mesh_refused") {
		t.Errorf("churned CSV missing churn columns:\n%s", csv)
	}
	cell := fmt.Sprintf(",%d,%d,%d", res.Point.Dropped, res.Point.Retried, res.Point.Refused)
	if !strings.Contains(csv, cell) {
		t.Errorf("churned CSV missing counter cells %q:\n%s", cell, csv)
	}

	clean := res.Point
	clean.Dropped, clean.Retried, clean.Refused = 0, 0, 0
	cleanFig := metrics.Figure{Name: "clean", Series: []metrics.Series{
		{Label: "mesh", Points: []metrics.Point{clean}},
	}}
	if got := cleanFig.CSV(); strings.Contains(got, "_dropped") {
		t.Errorf("churn-free CSV grew churn columns:\n%s", got)
	}
}
