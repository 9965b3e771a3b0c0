package core

import (
	"math"
	"reflect"
	"testing"

	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// The flow engine's pinned accuracy bounds against the cycle engine over
// the Fig. 10 grid (all four system kinds, quick windows), measured over
// the stable region only — points where BOTH engines stay below
// flowStableFactor × their own zero-load latency. The filter is symmetric
// because the engines diverge at criticality by construction, not by bug:
// at offered ≈ capacity the steady-state queueing model correctly reports
// near-unbounded latency while the open-loop cycle engine reports however
// much queue its finite window could grow. Saturation POSITION still
// cross-checks (a point one engine calls saturated and the other calls
// deeply stable would fail the mean bounds through its neighbours); only
// latency MAGNITUDE past the knee is uncomparable. The bounds are
// empirical: mean errors observed at roughly half these values, pinned
// with headroom so they gate regressions rather than noise.
const (
	// flowStableFactor is the repo's standard saturation-knee criterion
	// (metrics.Series.Saturation uses the same factor 3).
	flowStableFactor = 3.0
	// flowMeanLatencyTol bounds the mean relative latency error.
	flowMeanLatencyTol = 0.20
	// flowMeanThroughputTol bounds the mean relative accepted-throughput
	// error. Throughput is the stronger invariant: in the stable region
	// both engines must accept what is offered.
	flowMeanThroughputTol = 0.05
	// flowPointLatencyTol bounds every individual point's relative latency
	// error, so a single wild point cannot hide inside a good mean.
	flowPointLatencyTol = 0.60
)

// TestFlowEngineValidation is the flow engine's accuracy gate: both engines
// run the registered Fig. 10 grid (switch, 2d-mesh, sw-based and sw-less —
// all four system kinds — under uniform and the bit-permutation patterns),
// and the flow engine's stable-region results must stay within the pinned
// mean relative error bounds above. Cross-validation is documented-bounds,
// not bitwise: the analytical model approximates the cycle engines, it
// never replays them.
func TestFlowEngineValidation(t *testing.T) {
	spec, ok := LookupExperiment("10")
	if !ok {
		t.Fatal("experiment 10 not registered")
	}
	plan := spec.Plan(ScaleQuick)
	if len(plan.Figures) == 0 {
		t.Fatal("fig10 plan has no figures")
	}

	var latErrSum, thrErrSum float64
	var compared int
	kinds := map[SystemKind]int{}
	for _, fs := range plan.Figures {
		for _, ss := range fs.Series {
			cycZero, flowZero := -1.0, -1.0
			for _, rate := range ss.Rates {
				cyc := measureEngineSim(t, ss.Cfg, ss.Pattern, rate, netsim.EngineActiveSet, ss.Sim)
				flow := measureEngineSim(t, ss.Cfg, ss.Pattern, rate, netsim.EngineFlow, ss.Sim)
				if cycZero < 0 {
					cycZero, flowZero = cyc.Point.Latency, flow.Point.Latency
				}
				if cyc.Point.Latency > flowStableFactor*cycZero ||
					flow.Point.Latency > flowStableFactor*flowZero {
					continue // saturated for at least one engine: no steady state to validate
				}
				if flow.Stats.DeliveredPkts == 0 {
					t.Errorf("%s %s %s @%.2f: flow solve delivered nothing",
						fs.Name, ss.Cfg.Label(), ss.Pattern, rate)
					continue
				}
				latErr := math.Abs(flow.Point.Latency-cyc.Point.Latency) / cyc.Point.Latency
				thrErr := math.Abs(flow.Point.Throughput-cyc.Point.Throughput) /
					math.Max(cyc.Point.Throughput, 1e-9)
				if latErr > flowPointLatencyTol {
					t.Errorf("%s %s %s @%.2f: latency error %.0f%% (flow %.1f vs cycle %.1f) exceeds the per-point bound %.0f%%",
						fs.Name, ss.Cfg.Label(), ss.Pattern, rate,
						100*latErr, flow.Point.Latency, cyc.Point.Latency, 100*flowPointLatencyTol)
				}
				latErrSum += latErr
				thrErrSum += thrErr
				compared++
				kinds[ss.Cfg.Kind]++
			}
		}
	}
	if compared == 0 {
		t.Fatal("no stable-region points to compare")
	}
	for _, k := range []SystemKind{SingleSwitch, MeshCGroup, SwitchDragonfly, SwitchlessDragonfly} {
		if kinds[k] == 0 {
			t.Errorf("system kind %s contributed no compared points", k)
		}
	}
	meanLat := latErrSum / float64(compared)
	meanThr := thrErrSum / float64(compared)
	t.Logf("flow vs cycle over fig10: %d stable points, mean latency error %.1f%%, mean throughput error %.2f%%",
		compared, 100*meanLat, 100*meanThr)
	if meanLat > flowMeanLatencyTol {
		t.Errorf("mean relative latency error %.1f%% exceeds the pinned bound %.0f%%",
			100*meanLat, 100*flowMeanLatencyTol)
	}
	if meanThr > flowMeanThroughputTol {
		t.Errorf("mean relative throughput error %.2f%% exceeds the pinned bound %.0f%%",
			100*meanThr, 100*flowMeanThroughputTol)
	}
}

// TestFlowCollective checks the collective seam under EngineFlow: every
// schedule on every system kind yields a finite positive makespan with
// per-step cycles and a packet count, cross-checked loosely (same order of
// magnitude) against the cycle engine. Analytical per-step solves cannot
// be bitwise against a drained cycle sim — the bound here is coarse by
// design; the tight accuracy gate is TestFlowEngineValidation.
func TestFlowCollective(t *testing.T) {
	for _, k := range collectiveKinds() {
		for _, sch := range CollectiveSchedules() {
			t.Run(k.name+"/"+sch, func(t *testing.T) {
				measure := func(eng netsim.EngineKind) metrics.Point {
					sys, err := Build(k.cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					pt, err := sys.MeasureCollective(CollectiveSpec{
						Cfg: k.cfg, Schedule: sch, Volume: 96, Engine: eng})
					if err != nil {
						t.Fatal(err)
					}
					return pt
				}
				flow := measure(netsim.EngineFlow)
				cyc := measure(netsim.EngineActiveSet)
				if flow.Latency <= 0 || len(flow.Aux) < 2 || flow.Aux[0] <= 0 {
					t.Fatalf("vacuous flow measurement %+v", flow)
				}
				if ratio := flow.Latency / cyc.Latency; ratio < 0.2 || ratio > 5 {
					t.Errorf("flow makespan %.0f vs cycle %.0f: ratio %.2f outside [0.2, 5]",
						flow.Latency, cyc.Latency, ratio)
				}
			})
		}
	}
}

// TestFlowChurnCollective checks the churn-collective seam under
// EngineFlow: the baseline and the run with a mid-collective chip death
// each report a positive makespan and packet count, with step cycles that
// sum to the makespan; the kill run has nonempty pre- and post-kill
// phases; and it is deterministic. It does not compare the kill run's
// makespan with the baseline's.
func TestFlowChurnCollective(t *testing.T) {
	cfg := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 7, Workers: 1}
	cfg.Churn = topology.FaultTimeline{Armed: true}
	run := func(killChip int32) metrics.Point {
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		cs := CollectiveSpec{Cfg: cfg, Schedule: "ring", Volume: 128, Engine: netsim.EngineFlow}
		if killChip >= 0 {
			cs.Kill = &ChipKill{Chip: killChip, Step: 2}
		}
		pt, err := sys.MeasureCollective(cs)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	baseline := run(-1)
	kill := run(1)
	// Encoding (see MeasureCollective): Latency = makespan, Aux =
	// [packets, step cycles...] for the baseline and [packets, pre-kill
	// cycles, post-kill cycles, dropped, retried, step cycles...] with a kill.
	for _, c := range []struct {
		name  string
		pt    metrics.Point
		steps int // index of the first step in Aux
	}{{"baseline", baseline, 1}, {"kill", kill, 5}} {
		if c.pt.Latency <= 0 || len(c.pt.Aux) <= c.steps || c.pt.Aux[0] <= 0 {
			t.Fatalf("vacuous %s churn measurement %+v", c.name, c.pt)
		}
		var sum float64
		for _, v := range c.pt.Aux[c.steps:] {
			sum += v
		}
		if sum != c.pt.Latency {
			t.Fatalf("%s step cycles sum to %v, makespan %v", c.name, sum, c.pt.Latency)
		}
	}
	if kill.Aux[1] <= 0 || kill.Aux[2] <= 0 {
		t.Fatalf("kill run has empty pre/post phases: %+v", kill.Aux[:5])
	}
	if again := run(1); !reflect.DeepEqual(kill, again) {
		t.Fatalf("flow churn collective not deterministic:\n%+v\n%+v", kill, again)
	}
}

// TestFlowEngineDeterminism pins the flow path's reproducibility: the same
// configuration solved twice yields identical points (the demand matrix is
// sampled from per-chip RNG streams, not shared state).
func TestFlowEngineDeterminism(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 7}
	cfg.SLDF.G = 1
	a := measureEngine(t, cfg, "uniform", 0.4, netsim.EngineFlow)
	b := measureEngine(t, cfg, "uniform", 0.4, netsim.EngineFlow)
	if !reflect.DeepEqual(a.Point, b.Point) {
		t.Fatalf("flow points differ across identical runs:\n%+v\n%+v", a.Point, b.Point)
	}
}
