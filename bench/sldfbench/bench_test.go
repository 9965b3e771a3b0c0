package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sldf/internal/core"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// Tiny stand-ins for the benchmark's workloads: one W-group of the radix-16
// system, a single C-group mesh, and churn-r16's cable churn over short
// sweeps.
func tinySLDF() core.Config {
	p := core.Radix16SLDF()
	p.G = 1
	return core.Config{Kind: core.SwitchlessDragonfly, SLDF: p, Seed: 3, Workers: 1}
}

func tinyMesh() core.Config {
	return core.Config{Kind: core.MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 3, Workers: 1}
}

var tinyCycleSim = core.SimParams{Warmup: 100, Measure: 200, ExtraDrain: 100, PacketSize: 4}

var tinyFlowSim = core.SimParams{Warmup: 100, Measure: 200, ExtraDrain: 100, PacketSize: 4,
	Engine: netsim.EngineFlow, FlowWorkers: 2}

func tinyCycle() sweep {
	df := topology.DragonflyParams{P: 2, A: 2, H: 1}
	return sweep{
		cfgs: []core.Config{tinySLDF(),
			{Kind: core.SwitchDragonfly, DF: df, Seed: 3, Workers: 1, Mode: routing.Minimal}},
		pattern: "uniform", rates: []float64{0.2, 0.4}, sim: tinyCycleSim,
	}
}

func tinyFlow() sweep {
	return sweep{cfgs: []core.Config{tinySLDF()}, pattern: "uniform", rates: []float64{0.2, 0.4}, sim: tinyFlowSim}
}

func tinyChurn(t *testing.T) sweep {
	ch, err := cableChurn(tinySLDF().SLDF, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinySLDF()
	cfg.Churn = ch
	sim := tinyFlowSim
	sim.Warmup, sim.Measure = churnStart, churnEnd-churnStart // span every event
	return sweep{cfgs: []core.Config{cfg}, pattern: "uniform", rates: []float64{0.2, 0.4}, sim: sim}
}

func tinyCampaign() campaignWork {
	mesh := tinyMesh()
	mesh16 := core.Config{Kind: core.MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: 3}
	armed := mesh16
	armed.Churn = topology.FaultTimeline{Armed: true, Policy: netsim.RetrySource}
	return campaignWork{
		plans: []core.ExperimentPlan{
			{Figures: []core.FigureSpec{{Name: "tinyfig", Series: []core.SeriesSpec{
				{Cfg: mesh, Pattern: "uniform", Rates: []float64{0.25, 0.5}, Sim: tinyCycleSim}}}}},
			{Collectives: []core.CollectiveFigureSpec{{Name: "tinycoll", Cases: []core.CollectiveCaseSpec{
				{Cfg: mesh, Schedule: "ring", Volume: 16}}}}},
			{Churn: []core.ChurnFigureSpec{{Name: "tinychurn", Cases: []core.ChurnCaseSpec{
				{Cfg: armed, Schedule: "ring", Volume: 16, KillChip: 1, KillStep: 2}}}}},
		},
		daemons: 2,
		replays: 1,
	}
}

func newTestRunner(t *testing.T) (*runner, *bytes.Buffer) {
	var log bytes.Buffer
	return &runner{tmp: t.TempDir(), log: &log}, &log
}

// TestWorkloadKindsEndToEnd runs every workload kind untraced and traced,
// and checks that the traced pass reproduces the untraced lines and that
// the layer it exercises shows up in the per-layer metrics.
func TestWorkloadKindsEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name  string
		w     workload
		layer string // a per-layer count the kind must make nonzero
	}{
		{"cycle", tinyCycle(), "netsim.cycle.delivered_pkts"},
		{"flow", tinyFlow(), "netsim.flow.traces"},
		{"churn", tinyChurn(t), "netsim.flow.full_invalidations"},
		{"campaign", tinyCampaign(), "remote.requests"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, log := newTestRunner(t)
			if _, err := tc.w.setup(r); err != nil {
				t.Fatal(err)
			}
			if _, err := r.runPass(tc.w); err != nil {
				t.Fatal(err)
			}
			r.tr = newTracer()
			ps, err := r.runPass(tc.w)
			if err != nil {
				t.Fatal(err)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Fatalf("%d points, %d failed:\n%s", r.attempted, r.failed, log)
			}
			if ps.wall <= 0 || ps.first <= 0 || ps.first > ps.wall {
				t.Errorf("pass timing: wall %v, first point %v", ps.wall, ps.first)
			}
			spans := r.tr.snapshot()
			if n := phaseOverruns(spans); n != 0 {
				t.Errorf("%d points outlasted by their phases", n)
			}
			m := layerMetrics(subtree(spans, r.passSpan))
			if m[tc.layer] <= 0 {
				t.Errorf("%s = %g, want > 0", tc.layer, m[tc.layer])
			}
		})
	}
}

// TestPerturbedGoldenCountsOneFailure pins a pass's lines, perturbs one,
// and expects exactly that point to fail.
func TestPerturbedGoldenCountsOneFailure(t *testing.T) {
	w := tinyFlow()
	r, _ := newTestRunner(t)
	if _, err := r.runPass(w); err != nil {
		t.Fatal(err)
	}
	golden := slices.Clone(r.ref)
	golden[1] = strings.Replace(golden[1], ",uniform,", ",uniform-perturbed,", 1)

	r2, log := newTestRunner(t)
	r2.golden = golden
	if _, err := r2.runPass(w); err != nil {
		t.Fatal(err)
	}
	if r2.attempted != len(golden) || r2.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want %d and 1:\n%s", r2.attempted, r2.failed, len(golden), log)
	}

	// A golden with an extra line counts the missing point as failed too.
	r3, _ := newTestRunner(t)
	r3.golden = append(slices.Clone(r.ref), "extra")
	if _, err := r3.runPass(w); err != nil {
		t.Fatal(err)
	}
	if r3.failed != 1 || r3.attempted != len(r.ref)+1 {
		t.Fatalf("missing point: attempted %d, failed %d", r3.attempted, r3.failed)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "point", Start: 0, End: 100, Counters: map[string]float64{"flow": 1}},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 28},  // grandchild of 1
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 4, 3: 30, 4: 30, 5: 16}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := layerMetrics(spans)["netsim.flow.other_s"]; got != 50e-9 {
		t.Errorf("flow other_s = %g, want 5e-8", got)
	}
	if phaseOverruns(spans) != 0 {
		t.Error("phases of 20+30+30 ns within 100 ns reported as an overrun")
	}
	spans = append(spans, span{ID: 6, Parent: 1, Name: "e", Start: 0, End: 30})
	if phaseOverruns(spans) != 1 {
		t.Error("phases summing past their point not reported")
	}
}

// TestPercentileSampleRule checks nearest-rank percentiles over the samples
// n, n-1, ..., 1 and the rule that a tail percentile needs ten samples
// beyond it.
func TestPercentileSampleRule(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{0, 0.5, 0, false},
		{1, 0.5, 1, true}, // the median needs no samples beyond it
		{20, 0.5, 10, true},
		{99, 0.9, 0, false}, // rank 90 of 99 leaves 9 beyond
		{100, 0.9, 90, true},
		{109, 0.9, 99, true}, // rank 99 of 109 leaves 10 beyond
		{19, 0.99, 0, false},
	} {
		v, ok := percentile(samples(tc.n), tc.q)
		if v != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %t; want %g, %t", tc.n, tc.q, v, ok, tc.want, tc.ok)
		}
	}
}

// TestFleetTeardown checks that the loopback daemons stop listening and
// that a campaign pass leaves nothing in its scratch directory.
func TestFleetTeardown(t *testing.T) {
	before := runtime.NumGoroutine()
	r, _ := newTestRunner(t)
	f, err := startFleet(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for _, d := range f.daemons {
		addrs = append(addrs, d.addr)
	}
	f.close()
	for _, a := range addrs {
		if c, err := net.Dial("tcp", a); err == nil {
			c.Close()
			t.Errorf("daemon %s still accepts connections after close", a)
		}
	}
	// Client connection goroutines exit asynchronously after their
	// connections close; give them a bounded time to go.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after teardown, %d before", n, before)
	}

	if _, err := r.runPass(tinyCampaign()); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(r.tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("campaign pass left %d entries in its scratch directory", len(left))
	}
}

// TestRunPrintsResultLine runs the real flow-r32 workload for one pass
// against the committed goldens and checks the result line. (flow-r32 is
// the quickest workload to run once; campaign-quick's disk tier is slow to
// delete on filesystems that discard freed blocks.)
func TestRunPrintsResultLine(t *testing.T) {
	var out, errs bytes.Buffer
	code := run([]string{"--workload", "flow-r32", "--seed", "1", "--seconds", "0.1",
		"--golden", filepath.Join("..", "testdata"), "--tmp", t.TempDir()}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v:\n%s", res, errs.String())
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("metric %s = %+v", d.name, m)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "flow-r32", "--trace", "2"},
		{"--workload", "flow-r32", "--seconds", "0"},
		{"--workload", "flow-r32", "stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the harness in
// step: the same workloads and the same metric names.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
