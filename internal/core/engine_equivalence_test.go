package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// TestPointKeyEnginePartition pins down the cache semantics of the engine
// toggle: the default engine keeps the legacy key format (old caches stay
// valid), while a reference-engine run gets its own slot — a cross-check
// that replayed the cached active-set point would verify nothing. The flow
// solver's execution knobs are result-neutral and must not partition.
func TestPointKeyEnginePartition(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 1}
	sp := tinySim()
	def := pointKey(cfg, "uniform", 0.2, sp)
	if strings.Contains(def, "engine=") {
		t.Fatalf("default-engine key must keep the legacy format, got %q", def)
	}
	sp.Engine = netsim.EngineReference
	ref := pointKey(cfg, "uniform", 0.2, sp)
	if ref == def {
		t.Fatal("reference-engine run shares the default engine's cache slot")
	}
	sp.Engine = netsim.EngineFlow
	flow := pointKey(cfg, "uniform", 0.2, sp)
	par := sp
	par.FlowWorkers, par.FlowCold = 8, true
	if pointKey(cfg, "uniform", 0.2, par) != flow {
		t.Fatal("execution-only flow knobs changed the point cache key")
	}
}

// measureEngine builds cfg fresh and measures one load point with the given
// cycle engine.
func measureEngine(t *testing.T, cfg Config, pattern string, rate float64, k netsim.EngineKind) Result {
	t.Helper()
	return measureEngineSim(t, cfg, pattern, rate, k, tinySim())
}

// measureEngineSim is measureEngine with explicit window parameters.
func measureEngineSim(t *testing.T, cfg Config, pattern string, rate float64, k netsim.EngineKind, sp SimParams) Result {
	t.Helper()
	sys, err := Build(cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer sys.Close()
	pat, err := sys.PatternFor(pattern)
	if err != nil {
		t.Fatalf("pattern %s: %v", pattern, err)
	}
	sp.Engine = k
	res, err := sys.MeasureLoad(pat, rate, sp)
	if err != nil {
		t.Fatalf("measure (%v): %v", k, err)
	}
	return res
}

// TestEngineEquivalence is the tentpole's correctness gate: the active-set
// engine must be bitwise identical to the full-scan reference engine — the
// complete Stats struct (counters, hop mix, the full latency histogram) and
// the per-class link utilization — across every system kind under uniform,
// adversarial and collective workloads at a low rate and at saturation.
func TestEngineEquivalence(t *testing.T) {
	swb := Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: 5}
	swb.DF.G = 1
	swl := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 5}
	swl.SLDF.G = 1
	cases := []struct {
		name   string
		cfg    Config
		lo, hi float64
	}{
		{"switch", Config{Kind: SingleSwitch, Terminals: 4, Seed: 5}, 0.2, 2.5},
		{"mesh", Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 5}, 0.2, 2.5},
		{"sw-based", swb, 0.1, 1.4},
		{"sw-less", swl, 0.1, 1.4},
	}
	// bit-reverse is the adversarial permutation here: the group-level
	// worst-case pattern is degenerate (self-traffic) on these single-group
	// systems and is covered at full scale by the routing-modes test below.
	for _, tc := range cases {
		for _, pattern := range []string{"uniform", "bit-reverse", "ring-bidir"} {
			for _, rate := range []float64{tc.lo, tc.hi} {
				name := fmt.Sprintf("%s/%s/%.1f", tc.name, pattern, rate)
				t.Run(name, func(t *testing.T) {
					ref := measureEngine(t, tc.cfg, pattern, rate, netsim.EngineReference)
					act := measureEngine(t, tc.cfg, pattern, rate, netsim.EngineActiveSet)
					if !reflect.DeepEqual(ref.Stats, act.Stats) {
						t.Fatalf("stats diverged:\nreference: %+v\nactive:    %+v", ref.Stats, act.Stats)
					}
					if !reflect.DeepEqual(ref.Point, act.Point) {
						t.Fatalf("points diverged: %+v vs %+v", ref.Point, act.Point)
					}
					if ref.Utilization != act.Utilization {
						t.Fatalf("utilization diverged: %v vs %v", ref.Utilization, act.Utilization)
					}
					if ref.Stats.DeliveredPkts == 0 {
						t.Fatal("no traffic delivered; the comparison is vacuous")
					}
				})
			}
		}
	}
}

// TestEngineEquivalenceRoutingModes covers the routing algorithms with
// per-packet state and the adaptive pre-allocate congestion snapshot, where
// skipping a router the reference engine would visit (or vice versa) would
// desynchronize per-router RNG streams immediately.
func TestEngineEquivalenceRoutingModes(t *testing.T) {
	base := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 9}
	valiant := base
	valiant.Mode = routing.Valiant
	lower := base
	lower.Mode = routing.ValiantLower
	adaptive := base
	adaptive.Mode = routing.Adaptive
	reduced := base
	reduced.Scheme = routing.ReducedVC
	cases := []struct {
		name    string
		cfg     Config
		pattern string
		rate    float64
	}{
		{"minimal", base, "worst-case", 0.1},
		{"valiant", valiant, "worst-case", 0.1},
		{"valiant-lower", lower, "worst-case", 0.1},
		{"adaptive", adaptive, "uniform", 0.3},
		{"reduced-vc", reduced, "uniform", 0.3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Full 41-W-group system so misrouting has intermediates and the
			// worst-case pattern actually crosses groups. Short windows keep
			// the suite fast: 1312 chips still give thousands of packets.
			cfg := tc.cfg
			sp := SimParams{Warmup: 100, Measure: 200, ExtraDrain: 100, PacketSize: 4}
			ref := measureEngineSim(t, cfg, tc.pattern, tc.rate, netsim.EngineReference, sp)
			act := measureEngineSim(t, cfg, tc.pattern, tc.rate, netsim.EngineActiveSet, sp)
			if !reflect.DeepEqual(ref.Stats, act.Stats) {
				t.Fatalf("stats diverged:\nreference: %+v\nactive:    %+v", ref.Stats, act.Stats)
			}
			if ref.Stats.DeliveredPkts == 0 {
				t.Fatal("no traffic delivered; the comparison is vacuous")
			}
		})
	}
}

// TestEngineEquivalenceParallel checks that the active-set engine's
// cross-shard link staging is deterministic: multi-worker active-set runs
// must match the single-worker reference run bit for bit.
func TestEngineEquivalenceParallel(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 77,
				Workers: workers}
			cfg.SLDF.G = 1
			serial := cfg
			serial.Workers = 1
			ref := measureEngine(t, serial, "uniform", 0.8, netsim.EngineReference)
			act := measureEngine(t, cfg, "uniform", 0.8, netsim.EngineActiveSet)
			if !reflect.DeepEqual(ref.Stats, act.Stats) {
				t.Fatalf("stats diverged:\nreference: %+v\nactive:    %+v", ref.Stats, act.Stats)
			}
		})
	}
}

// TestEngineEquivalenceFaulted extends the tentpole's correctness gate to
// degraded topologies: with disabled links and routers, the active-set
// engine must remain bitwise identical to the full-scan reference engine —
// dead routers must never enter the bitmap, dead links never park on the
// timing wheel, and neither may perturb the shared injector walk. Covers
// every system kind that admits faults, plus Valiant detours on the full
// multi-W-group system.
func TestEngineEquivalenceFaulted(t *testing.T) {
	swl1 := faultedTinyCfg(routing.Minimal)
	mesh := Config{Kind: MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: 5}
	mesh.Faults = topology.FaultSpec{Seed: 2, LinkFraction: 0.08, RouterFraction: 0.04}
	swb := Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: 5}
	swb.Faults = topology.FaultSpec{Seed: 1, LinkFraction: 0.05}
	swlFull := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 9}
	swlFull.Faults = topology.FaultSpec{Seed: 1, LinkFraction: 0.04, RouterFraction: 0.02}
	swlMis := swlFull
	swlMis.Mode = routing.Valiant
	cases := []struct {
		name    string
		cfg     Config
		pattern string
		rate    float64
		sp      SimParams
	}{
		{"mesh", mesh, "uniform", 0.8, tinySim()},
		{"sw-less-g1", swl1, "bit-reverse", 0.6, tinySim()},
		{"sw-based", swb, "uniform", 0.2, shortSim()},
		{"sw-less-full", swlFull, "worst-case", 0.1, shortSim()},
		{"sw-less-full-mis", swlMis, "uniform", 0.2, shortSim()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := measureEngineSim(t, tc.cfg, tc.pattern, tc.rate, netsim.EngineReference, tc.sp)
			act := measureEngineSim(t, tc.cfg, tc.pattern, tc.rate, netsim.EngineActiveSet, tc.sp)
			if !reflect.DeepEqual(ref.Stats, act.Stats) {
				t.Fatalf("stats diverged:\nreference: %+v\nactive:    %+v", ref.Stats, act.Stats)
			}
			if ref.Utilization != act.Utilization {
				t.Fatalf("utilization diverged: %v vs %v", ref.Utilization, act.Utilization)
			}
			if ref.Stats.DeliveredPkts == 0 {
				t.Fatal("no traffic delivered; the comparison is vacuous")
			}
		})
	}
}

// shortSim is the multi-W-group window: 1312 chips give plenty of packets.
func shortSim() SimParams {
	return SimParams{Warmup: 100, Measure: 200, ExtraDrain: 100, PacketSize: 4}
}

// TestEngineEquivalenceFaultedParallel checks cross-shard staging on a
// degraded network: multi-worker active-set runs must match the serial
// reference bit for bit when links and routers are disabled.
func TestEngineEquivalenceFaultedParallel(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			cfg := faultedTinyCfg(routing.Minimal)
			cfg.Workers = workers
			serial := cfg
			serial.Workers = 1
			ref := measureEngine(t, serial, "uniform", 0.8, netsim.EngineReference)
			act := measureEngine(t, cfg, "uniform", 0.8, netsim.EngineActiveSet)
			if !reflect.DeepEqual(ref.Stats, act.Stats) {
				t.Fatalf("stats diverged:\nreference: %+v\nactive:    %+v", ref.Stats, act.Stats)
			}
			if ref.Stats.DeliveredPkts == 0 {
				t.Fatal("no traffic delivered; the comparison is vacuous")
			}
		})
	}
}

// TestEngineEquivalenceFaultedAfterReset checks the build-once/measure-many
// path on a degraded network: fault state must survive Reset, and a reset
// faulted system under the active-set engine must equal a fresh faulted
// build measured with the reference engine.
func TestEngineEquivalenceFaultedAfterReset(t *testing.T) {
	cfg := faultedTinyCfg(routing.Minimal)
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	wantR, wantL := sys.Net.DisabledCounts()
	pat, err := sys.PatternFor("uniform")
	if err != nil {
		t.Fatal(err)
	}
	sp := tinySim()
	sp.Engine = netsim.EngineActiveSet
	// Saturate first so the reset has in-flight packets to discard.
	if _, err := sys.MeasureLoad(pat, 1.6, sp); err != nil {
		t.Fatal(err)
	}
	sys.Reset()
	if gotR, gotL := sys.Net.DisabledCounts(); gotR != wantR || gotL != wantL {
		t.Fatalf("Reset changed the fault set: (%d, %d) → (%d, %d)", wantR, wantL, gotR, gotL)
	}
	act, err := sys.MeasureLoad(pat, 0.3, sp)
	if err != nil {
		t.Fatal(err)
	}
	ref := measureEngine(t, cfg, "uniform", 0.3, netsim.EngineReference)
	if !reflect.DeepEqual(ref.Stats, act.Stats) {
		t.Fatalf("stats diverged:\nreference (fresh): %+v\nactive (reset):    %+v", ref.Stats, act.Stats)
	}
}

// TestEngineEquivalenceAfterReset checks the build-once/measure-many path:
// a measurement on a reset system under the active-set engine equals a
// fresh build measured with the reference engine.
func TestEngineEquivalenceAfterReset(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 13}
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
	sp := tinySim()
	sp.Engine = netsim.EngineActiveSet
	// Saturate first so the reset has in-flight packets and grown buffers
	// to rebuild from.
	if _, err := sys.MeasureLoad(pat, 1.6, sp); err != nil {
		t.Fatal(err)
	}
	sys.Reset()
	act, err := sys.MeasureLoad(pat, 0.3, sp)
	if err != nil {
		t.Fatal(err)
	}
	ref := measureEngine(t, cfg, "uniform", 0.3, netsim.EngineReference)
	if !reflect.DeepEqual(ref.Stats, act.Stats) {
		t.Fatalf("stats diverged:\nreference (fresh): %+v\nactive (reset):    %+v", ref.Stats, act.Stats)
	}
}

// TestEngineEquivalenceAfterFlow checks the cycle state a flow-only network
// allocates on first use: a system that first solved flow points — its
// cycle state not yet built, churn segments applied and rewound — and then
// measures with a cycle engine after Reset must be bitwise identical to a
// fresh build measured with the same engine. Covers every system kind, both
// cycle engines and a churn-armed system. The flow engine cannot model
// adaptive routing, so the adaptive system's flow points must be rejected
// with ErrSimParams naming the engine and the mode, and leave the network
// measuring exactly as a fresh build — including the pre-allocate
// snapshot, which reads credits the flow engine never allocates.
func TestEngineEquivalenceAfterFlow(t *testing.T) {
	swb := Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: 5}
	swb.DF.G = 1
	swl := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 5}
	swl.SLDF.G = 1
	churned := swl
	churned.Seed = 11
	churned.Churn = churnWindow(0.04, 0.02, netsim.RetrySource)
	adaptive := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 9, Mode: routing.Adaptive}
	cases := []struct {
		name    string
		cfg     Config
		rate    float64
		sp      SimParams
		flowErr bool // the flow points are rejected
	}{
		{"switch", Config{Kind: SingleSwitch, Terminals: 4, Seed: 5}, 0.8, tinySim(), false},
		{"mesh", Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 5}, 0.8, tinySim(), false},
		{"sw-based", swb, 0.6, tinySim(), false},
		{"sw-less", swl, 0.6, tinySim(), false},
		{"sw-less-churn", churned, 0.6, tinySim(), false},
		{"sw-less-adaptive", adaptive, 0.3, shortSim(), true},
	}
	for _, tc := range cases {
		for _, kind := range []netsim.EngineKind{netsim.EngineActiveSet, netsim.EngineReference} {
			t.Run(tc.name+"/"+kind.String(), func(t *testing.T) {
				fresh := measureEngineSim(t, tc.cfg, "uniform", tc.rate, kind, tc.sp)
				if fresh.Stats.DeliveredPkts == 0 {
					t.Fatal("no traffic delivered; the comparison is vacuous")
				}
				sys, err := Build(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				pat, err := sys.PatternFor("uniform")
				if err != nil {
					t.Fatal(err)
				}
				sp := tc.sp
				sp.Engine = netsim.EngineFlow
				for _, rate := range []float64{0.2, tc.rate} {
					_, err := sys.MeasureLoad(pat, rate, sp)
					switch {
					case tc.flowErr && (!errors.Is(err, ErrSimParams) ||
						!strings.Contains(err.Error(), "flow") || !strings.Contains(err.Error(), "adaptive")):
						t.Fatalf("flow point %.1f: err = %v, want ErrSimParams naming the flow engine and adaptive routing", rate, err)
					case !tc.flowErr && err != nil:
						t.Fatalf("flow point %.1f: %v", rate, err)
					}
					sys.Reset()
				}
				sp.Engine = kind
				got, err := sys.MeasureLoad(pat, tc.rate, sp)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fresh.Stats, got.Stats) {
					t.Fatalf("stats diverged:\nfresh:      %+v\nafter flow: %+v", fresh.Stats, got.Stats)
				}
				if fresh.Utilization != got.Utilization {
					t.Fatalf("utilization diverged: %v vs %v", fresh.Utilization, got.Utilization)
				}
			})
		}
	}
}
