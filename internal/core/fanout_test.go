package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sldf/internal/campaign"
	"sldf/internal/energy"
	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// seriesPlan is the plan of one latency series.
func seriesPlan(cfg Config, pattern string, rates []float64, sp SimParams) ExperimentPlan {
	return ExperimentPlan{Figures: []FigureSpec{{Name: "sweep",
		Series: []SeriesSpec{{Cfg: cfg, Pattern: pattern, Rates: rates, Sim: sp}}}}}
}

// runSeries measures one latency series through RunPlan.
func runSeries(cfg Config, pattern string, rates []float64, sp SimParams, opts RunOptions) (metrics.Series, error) {
	res, err := RunPlan(seriesPlan(cfg, pattern, rates, sp), opts)
	if err != nil {
		return metrics.Series{}, err
	}
	return res.Figures[0].Series[0], nil
}

// runCollectives measures one collective panel through RunPlan.
func runCollectives(fs CollectiveFigureSpec, opts RunOptions) (metrics.CollectiveFigure, error) {
	res, err := RunPlan(ExperimentPlan{Collectives: []CollectiveFigureSpec{fs}}, opts)
	if err != nil {
		return metrics.CollectiveFigure{}, err
	}
	return res.Collectives[0], nil
}

// runChurn measures one churn panel through RunPlan.
func runChurn(fs ChurnFigureSpec, opts RunOptions) (metrics.ChurnFigure, error) {
	res, err := RunPlan(ExperimentPlan{Churn: []ChurnFigureSpec{fs}}, opts)
	if err != nil {
		return metrics.ChurnFigure{}, err
	}
	return res.Churn[0], nil
}

// recordingBackend runs specs on the local pool and records every Execute
// call's specs.
type recordingBackend struct {
	mu    sync.Mutex
	calls [][]campaign.JobSpec
}

func (*recordingBackend) Name() string { return "recording" }

func (b *recordingBackend) Execute(specs []campaign.JobSpec, opts campaign.ExecOptions) ([]metrics.Point, error) {
	b.mu.Lock()
	b.calls = append(b.calls, append([]campaign.JobSpec(nil), specs...))
	b.mu.Unlock()
	return campaign.LocalBackend{}.Execute(specs, opts)
}

// specSystem is the cacheID of the configuration a point or collective
// spec runs on: every payload carries it as "cfg".
func specSystem(t *testing.T, spec campaign.JobSpec) string {
	t.Helper()
	var p struct {
		Cfg Config `json:"cfg"`
	}
	if err := json.Unmarshal(spec.Payload, &p); err != nil {
		t.Fatal(err)
	}
	return p.Cfg.cacheID()
}

// TestRunExperimentFansOutOnceConfigMajor checks that a plan whose latency
// series interleave configurations (A, B, A) and which also holds an
// energy panel, a resilience figure, a collective and a churn panel
// reaches the backend as one Execute call, grouped by configuration in
// first-appearance order with plan order kept inside each group, and
// assembles to exactly what running each series and panel on its own
// gives.
func TestRunExperimentFansOutOnceConfigMajor(t *testing.T) {
	cfgA := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1}
	cfgB := Config{Kind: SingleSwitch, Terminals: 4, Seed: 1}
	churnCfg := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1,
		Churn: topology.FaultTimeline{Policy: netsim.DropInFlight}}
	sim := tinySim()
	plan := ExperimentPlan{
		Figures: []FigureSpec{
			{Name: "fa", Title: "A then B", Series: []SeriesSpec{
				{Cfg: cfgA, Pattern: "uniform", Rates: []float64{0.1, 0.2}, Sim: sim},
				{Cfg: cfgB, Pattern: "uniform", Rates: []float64{0.1, 0.2}, Sim: sim},
			}},
			{Name: "fb", Title: "A again", Series: []SeriesSpec{
				{Cfg: cfgA, Pattern: "uniform", Label: "A-again", Rates: []float64{0.3}, Sim: sim},
			}},
		},
		Energy: []EnergyFigureSpec{{Name: "en", Bars: []EnergyBarSpec{
			{Cfg: cfgB, Pattern: "uniform", Rate: 0.2, Label: "b", Sim: sim},
			{Cfg: cfgA, Pattern: "uniform", Rate: 0.2, Label: "a", Sim: sim},
		}}},
		// Fraction 0 is the pristine cfgA, measured once for both seeds.
		Resilience: []ResilienceFigureSpec{{Name: "res", Opts: ResilienceOpts{
			Fractions: []float64{0, 0.1}, Seeds: []uint64{1, 2},
			Pattern: "uniform", Rate: 0.2, Sim: sim,
		}, Series: []ResilienceSeriesSpec{{Cfg: cfgA, Label: "A"}}}},
		Collectives: []CollectiveFigureSpec{{Name: "col", Cases: []CollectiveCaseSpec{
			{Cfg: cfgB, Schedule: "ring", Volume: 64},
			{Cfg: cfgA, Schedule: "ring", Volume: 64},
		}}},
		Churn: []ChurnFigureSpec{{Name: "chu", Cases: []ChurnCaseSpec{
			{Cfg: churnCfg, Schedule: "ring", Volume: 64, KillChip: 1, KillStep: 1},
		}}},
	}
	spec := ExperimentSpec{Name: "fanout", Plan: func(Scale) ExperimentPlan { return plan }}

	rec := &recordingBackend{}
	got, err := RunExperiment(spec, ScaleQuick, RunOptions{Jobs: 2, Backend: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 1 {
		t.Fatalf("%d Execute calls, want 1", len(rec.calls))
	}

	// Expected order: A's jobs in plan order, then B's, then the two
	// faulted draws of A, then the armed churn configuration's baseline
	// and disturbed runs.
	familyPoint := func(fam pointFamily, cfg Config, rate float64) string {
		job, err := pointPlanJob(fam, cfg, "uniform", rate, sim)
		if err != nil {
			t.Fatal(err)
		}
		return job.spec.Key
	}
	point := func(cfg Config, rate float64) string { return familyPoint(sweepFamily, cfg, rate) }
	faulted := func(seed uint64) Config {
		cfg := cfgA
		cfg.Faults = topology.FaultSpec{Seed: seed, LinkFraction: 0.1}
		return cfg
	}
	pristine := cfgA
	pristine.Faults.Seed = 1
	collective := func(cs CollectiveSpec) string {
		js, err := CollectiveJob(cs)
		if err != nil {
			t.Fatal(err)
		}
		return js.Key
	}
	chu := plan.Churn[0].Cases[0]
	want := []string{
		point(cfgA, 0.1), point(cfgA, 0.2), point(cfgA, 0.3),
		familyPoint(energyFamily, cfgA, 0.2),
		familyPoint(resilienceFamily, pristine, 0.2),
		collective(plan.Collectives[0].Cases[1].Spec()),
		point(cfgB, 0.1), point(cfgB, 0.2),
		familyPoint(energyFamily, cfgB, 0.2),
		collective(plan.Collectives[0].Cases[0].Spec()),
		familyPoint(resilienceFamily, faulted(1), 0.2),
		familyPoint(resilienceFamily, faulted(2), 0.2),
		collective(chu.baseline()), collective(chu.Spec()),
	}
	var keys, systems []string
	for _, s := range rec.calls[0] {
		keys = append(keys, s.Key)
		if id := specSystem(t, s); len(systems) == 0 || systems[len(systems)-1] != id {
			systems = append(systems, id)
		}
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("job order:\n got %q\nwant %q", keys, want)
	}
	armed := churnCfg
	armed.Churn.Armed = true
	wantSys := []string{cfgA.cacheID(), cfgB.cacheID(), faulted(1).cacheID(), faulted(2).cacheID(), armed.cacheID()}
	if !reflect.DeepEqual(systems, wantSys) {
		t.Fatalf("configuration runs:\n got %q\nwant %q", systems, wantSys)
	}

	if pts := got.Figures[2].Series[0].Points; len(pts) != 2 || pts[1].Latency <= 0 {
		t.Fatalf("resilience curve %+v, want both fractions measured", pts)
	}

	// The same plan run piece by piece.
	var sep ExperimentResult
	for _, fs := range plan.Figures {
		fig := metrics.Figure{Name: fs.Name, Title: fs.Title}
		for _, ss := range fs.Series {
			s, err := runSeries(ss.Cfg, ss.Pattern, ss.Rates, ss.Sim, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if ss.Label != "" {
				s.Label = ss.Label
			}
			fig.Series = append(fig.Series, s)
		}
		sep.Figures = append(sep.Figures, fig)
	}
	resFig, resDraws := runResilienceFigure(t, plan.Resilience[0], RunOptions{})
	sep.Figures = append(sep.Figures, resFig)
	sep.Resilience = append(sep.Resilience, resDraws)
	en := EnergyFigure{Name: "en", Bars: make([]EnergyBar, len(plan.Energy[0].Bars))}
	for i, bar := range plan.Energy[0].Bars {
		// Priced straight from a fresh system's stats, off the job path.
		res := measureEngine(t, bar.Cfg, bar.Pattern, bar.Rate, netsim.EngineActiveSet)
		e := energy.FromStats(res.Stats, energy.Simplified())
		en.Bars[i] = EnergyBar{Label: bar.Label, Intra: e.IntraCGroup, Inter: e.InterCGroup}
	}
	sep.Energy = append(sep.Energy, en)
	col, err := runCollectives(plan.Collectives[0], RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sep.Collectives = append(sep.Collectives, col)
	churn, err := runChurn(plan.Churn[0], RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sep.Churn = append(sep.Churn, churn)
	if !reflect.DeepEqual(got, sep) {
		t.Fatalf("one fan-out diverged from piecewise runs:\n got %+v\nwant %+v", got, sep)
	}
}

// TestRunExperimentErrorNamesFigure checks that a failing job's error
// still names its figure after the plan-wide fan-out, on every kind of
// panel.
func TestRunExperimentErrorNamesFigure(t *testing.T) {
	cfgA := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1}
	cfgB := Config{Kind: SingleSwitch, Terminals: 4, Seed: 1}
	ok := FigureSpec{Name: "fok", Series: []SeriesSpec{
		{Cfg: cfgA, Pattern: "uniform", Rates: []float64{0.1}, Sim: tinySim()}}}
	for name, plan := range map[string]ExperimentPlan{
		"fbad (switch)": {Figures: []FigureSpec{ok, {Name: "fbad", Series: []SeriesSpec{
			{Cfg: cfgB, Pattern: "no-such-pattern", Rates: []float64{0.1}, Sim: tinySim()}}}}},
		"colbad": {Figures: []FigureSpec{ok}, Collectives: []CollectiveFigureSpec{{Name: "colbad",
			Cases: []CollectiveCaseSpec{{Cfg: cfgB, Schedule: "no-such-schedule", Volume: 64}}}}},
		"enbad": {Figures: []FigureSpec{ok}, Energy: []EnergyFigureSpec{{Name: "enbad",
			Bars: []EnergyBarSpec{{Cfg: cfgB, Pattern: "no-such-pattern", Rate: 0.1, Sim: tinySim()}}}}},
		"resbad (B)": {Figures: []FigureSpec{ok}, Resilience: []ResilienceFigureSpec{{Name: "resbad",
			Opts: ResilienceOpts{Fractions: []float64{0}, Seeds: []uint64{1}, Pattern: "no-such-pattern",
				Rate: 0.1, Sim: tinySim()},
			Series: []ResilienceSeriesSpec{{Cfg: cfgB, Label: "B"}}}}},
	} {
		spec := ExperimentSpec{Name: "bad", Plan: func(Scale) ExperimentPlan { return plan }}
		for _, jobs := range []int{1, 2} {
			_, err := RunExperiment(spec, ScaleQuick, RunOptions{Jobs: jobs})
			if err == nil || !strings.HasPrefix(err.Error(), name+": ") {
				t.Errorf("jobs=%d: err = %v, want it to name figure %s", jobs, err, name)
			}
		}
	}
}

// stubBackend answers every spec with a canned point, without simulating,
// and counts Execute calls.
type stubBackend struct{ calls int }

func (*stubBackend) Name() string { return "stub" }

func (b *stubBackend) Execute(specs []campaign.JobSpec, _ campaign.ExecOptions) ([]metrics.Point, error) {
	b.calls++
	pts := make([]metrics.Point, len(specs))
	for i := range pts {
		pts[i] = metrics.Point{Aux: []float64{1, 1}}
	}
	return pts, nil
}

// TestEveryExperimentFansOutOnce: every registered experiment, at either
// scale, reaches the backend in exactly one Execute call.
func TestEveryExperimentFansOutOnce(t *testing.T) {
	for _, spec := range Experiments() {
		for _, scale := range []Scale{ScaleQuick, ScalePaper} {
			b := &stubBackend{}
			if _, err := RunExperiment(spec, scale, RunOptions{Backend: b}); err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			if b.calls != 1 {
				t.Errorf("%s (scale %d): %d Execute calls, want 1", spec.Name, scale, b.calls)
			}
		}
	}
}

// TestPointFamiliesKeyApart pins a sweep point's job key, kind and payload
// to the bytes existing caches and daemons hold, and checks that the energy
// and resilience families measure the same payload under their own kinds
// and store slots.
func TestPointFamiliesKeyApart(t *testing.T) {
	cfg := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1}
	const (
		wantKey = "kind=3 df={P:0 A:0 H:0 G:0} sldf={NoCDim:0 ChipCols:0 ChipRows:0 AB:0 H:0 G:0 Layout:0} " +
			"term=0 chiplet=2 noc=2 scheme=0 mode=0 width=0 seed=0x1|pat=uniform|rate=0.25|" +
			"sim={Warmup:200 Measure:400 ExtraDrain:200 PacketSize:4}"
		wantPayload = `{"cfg":{"Kind":3,"DF":{"P":0,"A":0,"H":0,"G":0},` +
			`"SLDF":{"NoCDim":0,"ChipCols":0,"ChipRows":0,"AB":0,"H":0,"G":0,"Layout":0},` +
			`"Terminals":0,"ChipletDim":2,"NoCDim":2,"Scheme":0,"Mode":0,"IntraWidth":0,` +
			`"Faults":{"Seed":0,"LinkFraction":0,"RouterFraction":0,"Links":null,"Routers":null},` +
			`"Churn":{"Armed":false,"Seed":0,"LinkChurn":0,"RouterChurn":0,"Start":0,"End":0,"Repair":0,"Policy":0,"Events":null},` +
			`"Seed":1,"Workers":0,"WatchdogCycles":0},"pattern":"uniform","rate":0.25,` +
			`"sim":{"Warmup":200,"Measure":400,"ExtraDrain":200,"PacketSize":4,"Engine":0,"FlowWorkers":0,"FlowCold":false}}`
	)
	sweep, err := PointJob(cfg, "uniform", 0.25, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Key != wantKey || sweep.Kind != PointJobKind || string(sweep.Payload) != wantPayload {
		t.Fatalf("sweep job changed:\n key %s\nkind %s\npayload %s", sweep.Key, sweep.Kind, sweep.Payload)
	}
	seen := map[string]bool{}
	for fam := range pointFamilies {
		job, err := pointPlanJob(pointFamily(fam), cfg, "uniform", 0.25, tinySim())
		if err != nil {
			t.Fatal(err)
		}
		spec := job.spec
		if seen[spec.Key] || seen[spec.Kind] || !strings.HasPrefix(spec.Key, wantKey) ||
			string(spec.Payload) != wantPayload || job.sys != cfg.cacheID() {
			t.Fatalf("family %d: key %q kind %q sys %q payload %s", fam, spec.Key, spec.Kind, job.sys, spec.Payload)
		}
		seen[spec.Key], seen[spec.Kind] = true, true
	}
}

// TestRunPlanAppliesEngine: RunPlan honours RunOptions.Engine on a plain
// latency plan and on a collective plan, so every stored key carries the
// engine's suffix and none replays a default-engine slot, and it leaves
// the caller's plan as it was.
func TestRunPlanAppliesEngine(t *testing.T) {
	cfg := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1, Workers: 1}
	rates := []float64{0.2, 0.4}
	cs := CollectiveCaseSpec{Cfg: cfg, Schedule: "ring", Volume: 32}
	for _, engine := range []netsim.EngineKind{netsim.EngineReference, netsim.EngineFlow} {
		store := campaign.NewMemoryLRU[metrics.Point](16)
		opts := RunOptions{Store: store, Engine: engine}
		plan := seriesPlan(cfg, "uniform", rates, tinySim())
		if _, err := RunPlan(plan, opts); err != nil {
			t.Fatalf("%s: latency plan: %v", engine, err)
		}
		if got := plan.Figures[0].Series[0].Sim.Engine; got != netsim.EngineActiveSet {
			t.Fatalf("%s: RunPlan rewrote the caller's plan to %s", engine, got)
		}
		if _, err := runCollectives(CollectiveFigureSpec{Name: "c", Cases: []CollectiveCaseSpec{cs}}, opts); err != nil {
			t.Fatalf("%s: collective plan: %v", engine, err)
		}
		sp := tinySim()
		sp.Engine = engine
		var want []string
		for _, rate := range rates {
			want = append(want, pointKey(cfg, "uniform", rate, sp))
		}
		engineCase := cs
		engineCase.Engine = engine
		want = append(want, collectiveKey(engineCase.Spec()))
		if store.Len() != len(want) {
			t.Fatalf("%s: store holds %d points, want %d", engine, store.Len(), len(want))
		}
		for _, key := range want {
			if _, ok := store.Get(key); !ok || !strings.HasSuffix(key, "|engine="+engine.String()) {
				t.Errorf("%s: key %q not stored under the engine's slot", engine, key)
			}
		}
	}
}
