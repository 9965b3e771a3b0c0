package core

import (
	"fmt"
	"reflect"
	"testing"

	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// churnWindow is a seeded timeline whose deaths land inside tinySim's
// 800-cycle span and whose repairs complete before the drain ends, so every
// event (and both transitions of every component) is exercised.
func churnWindow(links, routers float64, policy netsim.DropPolicy) topology.FaultTimeline {
	return topology.FaultTimeline{
		Armed:     true,
		Seed:      13,
		LinkChurn: links, RouterChurn: routers,
		Start: 150, End: 500,
		Repair: 250,
		Policy: policy,
	}
}

// TestEngineEquivalenceChurn extends the tentpole's correctness gate to live
// churn: with components dying and coming back mid-run — stranding packets,
// recomputing routes, re-admitting repaired hardware — the active-set engine
// must remain bitwise identical to the full-scan reference engine on every
// system kind. The sampled fractions follow each kind's fault domain (the
// Dragonfly domain holds only switch↔switch channels; the single switch has
// no redundancy at all, so it gets explicit NIC death/repair events).
func TestEngineEquivalenceChurn(t *testing.T) {
	mesh := Config{Kind: MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: 5}
	mesh.Churn = churnWindow(0.05, 0.02, netsim.RetrySource)
	swl := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 11}
	swl.SLDF.G = 1
	swl.Churn = churnWindow(0.04, 0.02, netsim.RetrySource)
	swb := Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: 5}
	swb.DF.G = 1
	swb.Churn = churnWindow(0.05, 0, netsim.DropInFlight)
	swDrop := Config{Kind: SingleSwitch, Terminals: 4, Seed: 5}
	swDrop.Churn = topology.FaultTimeline{Armed: true, Policy: netsim.DropInFlight,
		Events: switchNICEvents(t, swDrop)}
	cases := []struct {
		name    string
		cfg     Config
		pattern string
		rate    float64
	}{
		{"mesh", mesh, "uniform", 0.8},
		{"sw-less", swl, "bit-reverse", 0.6},
		{"sw-based", swb, "uniform", 0.6},
		{"switch", swDrop, "uniform", 0.8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := measureEngine(t, tc.cfg, tc.pattern, tc.rate, netsim.EngineReference)
			act := measureEngine(t, tc.cfg, tc.pattern, tc.rate, netsim.EngineActiveSet)
			if !reflect.DeepEqual(ref.Stats, act.Stats) {
				t.Fatalf("stats diverged:\nreference: %+v\nactive:    %+v", ref.Stats, act.Stats)
			}
			if ref.Utilization != act.Utilization {
				t.Fatalf("utilization diverged: %v vs %v", ref.Utilization, act.Utilization)
			}
			if ref.Stats.DeliveredPkts == 0 {
				t.Fatal("no traffic delivered; the comparison is vacuous")
			}
			if ref.Stats.DroppedPkts+ref.Stats.RetriedPkts+ref.Stats.RefusedPkts == 0 {
				t.Fatal("timeline perturbed nothing; the churn comparison is vacuous")
			}
		})
	}
}

// switchNICEvents builds a death+repair pair for one NIC of a single-switch
// system. The switch fault domain is empty (every component is a single
// point of failure), so churn there is always explicit.
func switchNICEvents(t *testing.T, cfg Config) []netsim.TimedFault {
	t.Helper()
	probe := cfg
	probe.Churn = topology.FaultTimeline{Armed: true}
	sys, err := Build(probe)
	if err != nil {
		t.Fatalf("probe build: %v", err)
	}
	defer sys.Close()
	nic := sys.Net.ChipNodes[1][0]
	return []netsim.TimedFault{
		netsim.RouterFault(250, nic, false),
		netsim.RouterFault(500, nic, true),
	}
}

// TestEngineEquivalenceChurnParallel checks cross-shard staging under churn:
// multi-worker active-set runs over a fault timeline must match the serial
// reference bit for bit — including the serial churn batches interleaved
// between parallel phases.
func TestEngineEquivalenceChurnParallel(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 77,
				Workers: workers}
			cfg.SLDF.G = 1
			cfg.Churn = churnWindow(0.04, 0.02, netsim.RetrySource)
			serial := cfg
			serial.Workers = 1
			ref := measureEngine(t, serial, "uniform", 0.8, netsim.EngineReference)
			act := measureEngine(t, cfg, "uniform", 0.8, netsim.EngineActiveSet)
			if !reflect.DeepEqual(ref.Stats, act.Stats) {
				t.Fatalf("stats diverged:\nreference: %+v\nactive:    %+v", ref.Stats, act.Stats)
			}
			if ref.Stats.DroppedPkts+ref.Stats.RetriedPkts+ref.Stats.RefusedPkts == 0 {
				t.Fatal("timeline perturbed nothing; the churn comparison is vacuous")
			}
		})
	}
}

// TestChurnZeroEventTimelineMatchesStatic is the churn compatibility gate:
// an armed timeline with no events must simulate bitwise identically to the
// corresponding static-fault build — the churn plumbing (per-step due
// check, the network's alive-chip table) may cost nothing behaviorally.
func TestChurnZeroEventTimelineMatchesStatic(t *testing.T) {
	for _, kind := range []netsim.EngineKind{netsim.EngineActiveSet, netsim.EngineReference} {
		t.Run(kind.String(), func(t *testing.T) {
			static := faultedTinyCfg(routing.Minimal)
			armed := static
			armed.Churn = topology.FaultTimeline{Armed: true}
			want := measureEngine(t, static, "uniform", 0.8, kind)
			got := measureEngine(t, armed, "uniform", 0.8, kind)
			if !reflect.DeepEqual(want.Stats, got.Stats) {
				t.Fatalf("armed zero-event build diverged from static build:\nstatic: %+v\narmed:  %+v",
					want.Stats, got.Stats)
			}
			if want.Utilization != got.Utilization {
				t.Fatalf("utilization diverged: %v vs %v", want.Utilization, got.Utilization)
			}
		})
	}
}

// TestChurnSystemResetMidTimeline is the reset-coverage satellite at system
// level: interrupting a run halfway through a timeline (deaths applied,
// repairs pending) and calling Reset must restore build-time fault state and
// the base routing exactly — a full measurement afterwards is bitwise equal
// to one on a fresh build, on both engines.
func TestChurnSystemResetMidTimeline(t *testing.T) {
	cfg := Config{Kind: MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: 5}
	cfg.Churn = churnWindow(0.05, 0.02, netsim.RetrySource)
	for _, kind := range []netsim.EngineKind{netsim.EngineActiveSet, netsim.EngineReference} {
		t.Run(kind.String(), func(t *testing.T) {
			fresh := measureEngine(t, cfg, "uniform", 0.8, kind)

			sys, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			wantR, wantL := sys.Net.DisabledCounts()
			pending := sys.Net.ChurnPending()
			pat, err := sys.PatternFor("uniform")
			if err != nil {
				t.Fatal(err)
			}
			// Stop just past the first death: its repair (250 cycles later)
			// is still pending, so the timeline is partially applied. (A
			// MeasureLoad here would drain past every repair and land back
			// on base state.)
			events := cfg.Churn.Resolve(sys.churnDomain)
			if len(events) == 0 {
				t.Fatal("timeline resolved to nothing")
			}
			sys.Net.SetEngine(kind)
			if err := sys.Net.Run(events[0].Cycle + 1); err != nil {
				t.Fatal(err)
			}
			if r, l := sys.Net.DisabledCounts(); r == wantR && l == wantL {
				t.Fatal("no component died during the partial run; the reset is vacuous")
			}
			if got := sys.Net.ChurnPending(); got == 0 || got == pending {
				t.Fatalf("timeline not partially applied: %d of %d events pending", got, pending)
			}
			sys.Reset()
			if gotR, gotL := sys.Net.DisabledCounts(); gotR != wantR || gotL != wantL {
				t.Fatalf("Reset did not restore build-time faults: (%d, %d) → (%d, %d)",
					wantR, wantL, gotR, gotL)
			}
			if got := sys.Net.ChurnPending(); got != pending {
				t.Fatalf("Reset left %d of %d timeline events pending", got, pending)
			}
			sp := tinySim()
			sp.Engine = kind
			res, err := sys.MeasureLoad(pat, 0.8, sp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh.Stats, res.Stats) {
				t.Fatalf("reset-mid-churn replay diverged from fresh build:\nfresh: %+v\nreset: %+v",
					fresh.Stats, res.Stats)
			}
		})
	}
}

// TestMeasureChurnCollective pins the churn experiment primitive: a chip
// death at step k of an AllReduce has a finite, reproducible cost, identical
// across engines, and visible in the drop accounting.
func TestMeasureChurnCollective(t *testing.T) {
	cfg := Config{Kind: MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: 5}
	cfg.Churn = topology.FaultTimeline{Armed: true, Policy: netsim.DropInFlight}
	run := func(kind netsim.EngineKind, killChip int32, killStep int) metrics.Point {
		t.Helper()
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		cs := CollectiveSpec{Cfg: cfg, Schedule: "ring", Volume: 128, Engine: kind}
		if killChip >= 0 {
			cs.Kill = &ChipKill{Chip: killChip, Step: killStep}
		}
		pt, err := sys.MeasureCollective(cs)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	base := run(netsim.EngineActiveSet, -1, 0)
	kill := run(netsim.EngineActiveSet, 1, 2)
	if base.Latency <= 0 || kill.Latency <= 0 {
		t.Fatalf("non-positive makespans: baseline %v, kill %v", base.Latency, kill.Latency)
	}
	if kill.Aux[1] <= 0 || kill.Aux[2] <= 0 {
		t.Fatalf("kill run did not split around the death: pre=%v post=%v", kill.Aux[1], kill.Aux[2])
	}
	if reflect.DeepEqual(base, kill) {
		t.Fatal("chip death changed nothing")
	}
	// Reproducible: a second fresh run returns the identical point.
	if again := run(netsim.EngineActiveSet, 1, 2); !reflect.DeepEqual(kill, again) {
		t.Fatalf("churn collective not reproducible:\nfirst:  %+v\nsecond: %+v", kill, again)
	}
	// Engine-independent: the reference engine agrees bit for bit.
	if ref := run(netsim.EngineReference, 1, 2); !reflect.DeepEqual(kill, ref) {
		t.Fatalf("engines diverged on churn collective:\nactive:    %+v\nreference: %+v", kill, ref)
	}
	// A kill needs the churn machinery: on an unarmed build it is an error.
	unarmed := cfg
	unarmed.Churn = topology.FaultTimeline{}
	sys, err := Build(unarmed)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.MeasureCollective(CollectiveSpec{Cfg: unarmed, Schedule: "ring", Volume: 128,
		Kill: &ChipKill{Chip: 1, Step: 2}}); err == nil {
		t.Fatal("chip kill on an unarmed system accepted")
	}
}

// TestMeasureChurnCollectiveReuse checks the worker-cache path: measuring on
// a reset system equals measuring on a fresh build (the executor caches
// systems by config and resets between jobs).
func TestMeasureChurnCollectiveReuse(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 11}
	cfg.SLDF.G = 1
	cfg.Churn = topology.FaultTimeline{Armed: true, Policy: netsim.RetrySource}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cs := CollectiveSpec{Cfg: cfg, Schedule: "ring", Volume: 128, Kill: &ChipKill{Chip: 2, Step: 1}}
	first, err := sys.MeasureCollective(cs)
	if err != nil {
		t.Fatal(err)
	}
	sys.Reset()
	second, err := sys.MeasureCollective(cs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("reset system diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestRunPlanChurnPanel runs a two-case panel end to end through the backend
// seam and checks the decoded rows carry exact baseline/disturbed cycle
// accounting.
func TestRunPlanChurnPanel(t *testing.T) {
	cfg := Config{Kind: MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: 5}
	drop := cfg
	drop.Churn = topology.FaultTimeline{Armed: true, Policy: netsim.DropInFlight}
	retry := cfg
	retry.Churn = topology.FaultTimeline{Armed: true, Policy: netsim.RetrySource}
	fig, err := runChurn(ChurnFigureSpec{
		Name: "figtest", Title: "test",
		Cases: []ChurnCaseSpec{
			{Cfg: drop, Label: "mesh-drop", Schedule: "ring", Volume: 128, KillChip: 1, KillStep: 2},
			{Cfg: retry, Label: "mesh-retry", Schedule: "ring", Volume: 128, KillChip: 1, KillStep: 2},
		},
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 2 {
		t.Fatalf("%d rows", len(fig.Rows))
	}
	for _, row := range fig.Rows {
		if row.BaselineCycles <= 0 || row.Cycles <= 0 {
			t.Fatalf("row %s has empty makespans: %+v", row.System, row)
		}
		if row.CostCycles != row.Cycles-row.BaselineCycles {
			t.Fatalf("row %s cost mismatch: %+v", row.System, row)
		}
		if row.Steps == 0 || int64(row.Steps) != int64(len(row.StepCycles)) {
			t.Fatalf("row %s step accounting: %+v", row.System, row)
		}
		if row.PreCycles+row.PostCycles != row.Cycles {
			t.Fatalf("row %s pre+post != total: %+v", row.System, row)
		}
	}
	if reflect.DeepEqual(fig.Rows[0], fig.Rows[1]) {
		t.Fatal("drop and retry policies produced identical rows")
	}
	csv := fig.CSV()
	if len(csv) == 0 {
		t.Fatal("empty CSV")
	}
}

// TestGoldenChurn locks the churn panel's rows bit for bit — baseline and
// disturbed makespans, the pre/post split, per-step cycles and the drop and
// retry accounting — for a drop-policy and a retry-policy mesh and a
// one-W-group switch-less system, on every engine. Both cycle engines must
// reproduce the same section. Regenerate deliberately with
//
//	go test ./internal/core -run TestGoldenChurn -update
func TestGoldenChurn(t *testing.T) {
	mesh := Config{Kind: MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: 5, Workers: 1}
	drop := mesh
	drop.Churn = topology.FaultTimeline{Armed: true, Policy: netsim.DropInFlight}
	retry := mesh
	retry.Churn = topology.FaultTimeline{Armed: true, Policy: netsim.RetrySource}
	swl := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 7, Workers: 1}
	swl.SLDF.G = 1
	swl.Churn = topology.FaultTimeline{Armed: true, Policy: netsim.DropInFlight}
	cases := []ChurnCaseSpec{
		{Cfg: drop, Label: "mesh-drop", Schedule: "ring", Volume: 128, KillChip: 1, KillStep: 2},
		{Cfg: retry, Label: "mesh-retry", Schedule: "ring", Volume: 128, KillChip: 1, KillStep: 2},
		{Cfg: swl, Label: "sw-less-drop", Schedule: "2d", Volume: 128, KillChip: 3, KillStep: 1},
	}
	type entry struct {
		Engine string             `json:"engine"`
		Rows   []metrics.ChurnRow `json:"rows"`
	}
	var got []entry
	for _, kind := range []netsim.EngineKind{netsim.EngineActiveSet, netsim.EngineReference, netsim.EngineFlow} {
		spec := ChurnFigureSpec{Name: "golden", Cases: append([]ChurnCaseSpec(nil), cases...)}
		for i := range spec.Cases {
			spec.Cases[i].Engine = kind
		}
		fig, err := runChurn(spec, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, row := range fig.Rows {
			if row.Packets == 0 || row.PreCycles == 0 || row.PostCycles == 0 {
				t.Fatalf("%s: vacuous row %+v", kind, row)
			}
		}
		got = append(got, entry{Engine: kind.String(), Rows: fig.Rows})
	}
	if !reflect.DeepEqual(got[0].Rows, got[1].Rows) {
		t.Fatalf("cycle engines diverged on the churn panel:\nactive:    %+v\nreference: %+v",
			got[0].Rows, got[1].Rows)
	}
	checkGolden(t, "golden_churn.json", got, *updateGolden)
}
