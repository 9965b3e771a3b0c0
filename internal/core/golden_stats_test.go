package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// -update regenerates the golden fixtures instead of diffing against them:
//
//	go test ./internal/core -run TestGoldenStats -update
var updateGolden = flag.Bool("update", false, "rewrite golden-stats fixtures")

// goldenCases pins one small configuration per system kind under a benign
// and an adversarial pattern, plus one deterministic faulted build. The
// committed fixtures lock the simulator's complete Stats output — every
// counter, the hop mix, the full latency histogram — so an engine or
// performance refactor that silently changes results fails here first.
func goldenCases() []struct {
	name string
	cfg  Config
} {
	swb := Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: 7}
	swb.DF.G = 1
	swl := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 7}
	swl.SLDF.G = 1
	faulted := swl
	faulted.Faults = topology.FaultSpec{Seed: 4, LinkFraction: 0.08, RouterFraction: 0.04}
	faultedMis := faulted
	faultedMis.Mode = routing.Valiant
	// Churn fixtures lock the full drop/retry accounting of a seeded fault
	// timeline — deaths, repairs, mid-run re-routes — not just steady-state
	// counters.
	churned := swl
	churned.Churn = churnWindow(0.04, 0.02, netsim.RetrySource)
	meshChurned := Config{Kind: MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: 7}
	meshChurned.Churn = churnWindow(0.05, 0.02, netsim.DropInFlight)
	return []struct {
		name string
		cfg  Config
	}{
		{"switch", Config{Kind: SingleSwitch, Terminals: 4, Seed: 7}},
		{"mesh", Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 7}},
		{"sw-based", swb},
		{"sw-less", swl},
		{"sw-less-faulted", faulted},
		{"sw-less-faulted-mis", faultedMis},
		{"sw-less-churn", churned},
		{"mesh-churn", meshChurned},
	}
}

// goldenPatterns pairs each kind with a benign and an adversarial load.
var goldenPatterns = []struct {
	pattern string
	rate    float64
}{
	{"uniform", 0.4},
	{"bit-reverse", 0.4},
}

func TestGoldenStats(t *testing.T) {
	for _, c := range goldenCases() {
		for _, pr := range goldenPatterns {
			name := fmt.Sprintf("%s-%s", c.name, pr.pattern)
			t.Run(name, func(t *testing.T) {
				sys, err := Build(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				pat, err := sys.PatternFor(pr.pattern)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.MeasureLoad(pat, pr.rate, tinySim())
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.DeliveredPkts == 0 {
					t.Fatal("no traffic delivered; the fixture would be vacuous")
				}
				checkGolden(t, "golden_"+name+".json", res.Stats, *updateGolden)
			})
		}
	}
}

// checkGolden diffs v's indented JSON against the committed fixture
// testdata/file, or rewrites the fixture when update is set.
func checkGolden(t *testing.T, file string, v any, update bool) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", file)
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("results diverged from %s.\nIf the change is intentional, regenerate with:\n"+
			"  go test ./internal/core -run %s -update\ngot:\n%s", path, t.Name(), got)
	}
}

// saturatedGoldenCases pins the regime the rate-0.4 fixtures never reach:
// offered load past the knee, where most queues hold waiting packets,
// outputs serialize back to back, credits run out and — under churn —
// dead links and in-flight sanitization block routers mid-run. Every
// allocation shortcut (cached lookahead routes, sleeping routers) is
// exercised here rather than at light load.
func saturatedGoldenCases() []struct {
	name string
	cfg  Config
} {
	swb := Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: 7}
	swb.DF.G = 1
	swl := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 7}
	swl.SLDF.G = 1
	adaptive := Config{Kind: SwitchlessDragonfly, Seed: 7, Mode: routing.Adaptive,
		SLDF: topology.SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 4, H: 2}}
	retry := swl
	retry.Churn = churnWindow(0.04, 0.02, netsim.RetrySource)
	drop := swl
	drop.Churn = churnWindow(0.02, 0, netsim.DropInFlight)
	meshChurned := Config{Kind: MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: 7}
	meshChurned.Churn = churnWindow(0.05, 0.02, netsim.DropInFlight)
	return []struct {
		name string
		cfg  Config
	}{
		{"sw-based", swb},
		{"sw-less", swl},
		{"sw-less-adaptive", adaptive},
		{"sw-less-churn-retry", retry},
		{"sw-less-churn-drop", drop},
		{"mesh-churn", meshChurned},
	}
}

// TestGoldenStatsSaturated locks uniform traffic at two rates past the
// knee on both cycle engines. Each (case, rate) has one fixture that both
// engines must reproduce exactly; -update rewrites it from the active-set
// run, and the reference run is still compared against it.
func TestGoldenStatsSaturated(t *testing.T) {
	engines := []netsim.EngineKind{netsim.EngineActiveSet, netsim.EngineReference}
	for _, c := range saturatedGoldenCases() {
		for _, rate := range []float64{0.9, 1.3} {
			file := fmt.Sprintf("golden_sat_%s-uniform-%.1f.json", c.name, rate)
			for _, kind := range engines {
				t.Run(fmt.Sprintf("%s-%.1f/%s", c.name, rate, kind), func(t *testing.T) {
					res := measureEngine(t, c.cfg, "uniform", rate, kind)
					if res.Stats.DeliveredPkts == 0 {
						t.Fatal("no traffic delivered; the fixture would be vacuous")
					}
					checkGolden(t, file, res.Stats, *updateGolden && kind == netsim.EngineActiveSet)
				})
			}
		}
	}
}
