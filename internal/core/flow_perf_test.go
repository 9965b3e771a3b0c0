package core

import (
	"reflect"
	"testing"

	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// measureFlowSeries measures a rate grid on ONE built system (Reset between
// points — the configuration every sweep worker runs), returning the full
// per-point results and the network's cumulative solver statistics. This is
// the warm path: the second and later points should be served from the
// route-trace cache.
func measureFlowSeries(t *testing.T, cfg Config, pattern string, rates []float64, sp SimParams) ([]Result, netsim.FlowStats) {
	t.Helper()
	sys, err := Build(cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer sys.Close()
	pat, err := sys.PatternFor(pattern)
	if err != nil {
		t.Fatalf("pattern: %v", err)
	}
	sp.Engine = netsim.EngineFlow
	out := make([]Result, 0, len(rates))
	for _, rate := range rates {
		res, err := sys.MeasureLoad(pat, rate, sp)
		if err != nil {
			t.Fatalf("measure @%.2f: %v", rate, err)
		}
		out = append(out, res)
		sys.Reset()
	}
	return out, sys.Net.FlowSolverStats()
}

// flowEquivalenceKinds is the property-test grid: all four system kinds plus
// a churn-timeline variant (mid-window link deaths segment every solve).
func flowEquivalenceKinds() []struct {
	name string
	cfg  Config
} {
	kinds := collectiveKinds()
	churn := Config{Kind: MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: 5, Workers: 1}
	churn.Churn = topology.FaultTimeline{
		Armed: true, Seed: 3, LinkChurn: 0.1, Start: 150, End: 700,
		Policy: netsim.DropInFlight,
	}
	return append(kinds, struct {
		name string
		cfg  Config
	}{"mesh-churn", churn})
}

// TestFlowCacheEquivalence is the tentpole's correctness gate: on every
// system kind (switch, mesh, sw-based, sw-less, and a live-churn timeline),
// a warm-cache sweep and a parallel warm sweep must be bitwise identical —
// full Stats surface, not summaries — to a forced-cold sweep that re-traces
// every route at every point.
func TestFlowCacheEquivalence(t *testing.T) {
	rates := []float64{0.2, 0.4, 0.6}
	for _, k := range flowEquivalenceKinds() {
		t.Run(k.name, func(t *testing.T) {
			sp := QuickSim()

			cold := sp
			cold.FlowCold = true
			want, _ := measureFlowSeries(t, k.cfg, "uniform", rates, cold)

			warm, ws := measureFlowSeries(t, k.cfg, "uniform", rates, sp)
			// Churn-armed systems key routing and traces by fault state and
			// keep them across batches and Reset; netsim's
			// TestFaultStateRoutingOracle pins that reuse, so only churn-free
			// sweeps are required to hit the cache here.
			if ws.CacheHits == 0 && k.cfg.Churn.Empty() {
				t.Fatal("warm sweep never hit the route-trace cache")
			}

			par := sp
			par.FlowWorkers = 4
			parallel, _ := measureFlowSeries(t, k.cfg, "uniform", rates, par)

			for i, rate := range rates {
				if !reflect.DeepEqual(want[i], warm[i]) {
					t.Errorf("@%.2f: warm-cache result diverged from cold\ncold: %+v\nwarm: %+v",
						rate, want[i].Stats, warm[i].Stats)
				}
				if !reflect.DeepEqual(want[i], parallel[i]) {
					t.Errorf("@%.2f: parallel result diverged from cold serial\ncold:     %+v\nparallel: %+v",
						rate, want[i].Stats, parallel[i].Stats)
				}
			}
		})
	}
}

// TestFlowWarmSweepCacheEffect pins that the warm path actually amortizes:
// on a churn-free system, points after the first re-trace nothing — every
// route of the whole sweep is traced during point one.
func TestFlowWarmSweepCacheEffect(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 7, Workers: 1}
	cfg.SLDF.G = 1
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pat, err := sys.PatternFor("uniform")
	if err != nil {
		t.Fatal(err)
	}
	sp := QuickSim()
	sp.Engine = netsim.EngineFlow
	var tracesAfterFirst int64
	for i, rate := range []float64{0.2, 0.4, 0.6} {
		if _, err := sys.MeasureLoad(pat, rate, sp); err != nil {
			t.Fatalf("measure @%.2f: %v", rate, err)
		}
		sys.Reset()
		fs := sys.Net.FlowSolverStats()
		if i == 0 {
			tracesAfterFirst = fs.Traces
			if tracesAfterFirst == 0 {
				t.Fatal("first point traced nothing")
			}
		} else if fs.Traces != tracesAfterFirst {
			t.Fatalf("point %d re-traced: %d traces total, %d after point one",
				i+1, fs.Traces, tracesAfterFirst)
		} else if fs.CacheHits == 0 {
			t.Fatalf("point %d served no flows from the cache", i+1)
		}
	}
}
