package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sldf/internal/campaign"
	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

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
// spec runs on: both payloads carry it as "cfg".
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
// series interleave configurations (A, B, A) and which also holds a
// collective and a churn panel reaches the backend as one Execute call,
// grouped by configuration in first-appearance order with plan order kept
// inside each group, and assembles to exactly what running each series and
// panel on its own gives.
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

	// Expected order: A's jobs in plan order, then B's, then the armed
	// churn configuration's baseline and disturbed runs.
	point := func(cfg Config, rate float64) string {
		js, err := PointJob(cfg, "uniform", rate, sim)
		if err != nil {
			t.Fatal(err)
		}
		return js.Key
	}
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
		collective(plan.Collectives[0].Cases[1].Spec()),
		point(cfgB, 0.1), point(cfgB, 0.2),
		collective(plan.Collectives[0].Cases[0].Spec()),
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
	if wantSys := []string{cfgA.cacheID(), cfgB.cacheID(), armed.cacheID()}; !reflect.DeepEqual(systems, wantSys) {
		t.Fatalf("configuration runs:\n got %q\nwant %q", systems, wantSys)
	}

	// The same plan run piece by piece.
	var sep ExperimentResult
	for _, fs := range plan.Figures {
		fig := metrics.Figure{Name: fs.Name, Title: fs.Title}
		for _, ss := range fs.Series {
			s, err := SweepOpts(ss.Cfg, ss.Pattern, ss.Rates, ss.Sim, RunOptions{})
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
	col, err := RunCollectiveFigure(plan.Collectives[0], RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sep.Collectives = append(sep.Collectives, col)
	churn, err := RunChurnFigure(plan.Churn[0], RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sep.Churn = append(sep.Churn, churn)
	if !reflect.DeepEqual(got, sep) {
		t.Fatalf("one fan-out diverged from piecewise runs:\n got %+v\nwant %+v", got, sep)
	}
}

// TestRunExperimentErrorNamesFigure checks that a failing job's error
// still names its figure after the plan-wide fan-out, on either kind of
// panel.
func TestRunExperimentErrorNamesFigure(t *testing.T) {
	cfgA := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1}
	cfgB := Config{Kind: SingleSwitch, Terminals: 4, Seed: 1}
	ok := FigureSpec{Name: "fok", Series: []SeriesSpec{
		{Cfg: cfgA, Pattern: "uniform", Rates: []float64{0.1}, Sim: tinySim()}}}
	for name, plan := range map[string]ExperimentPlan{
		"fbad": {Figures: []FigureSpec{ok, {Name: "fbad", Series: []SeriesSpec{
			{Cfg: cfgB, Pattern: "no-such-pattern", Rates: []float64{0.1}, Sim: tinySim()}}}}},
		"colbad": {Figures: []FigureSpec{ok}, Collectives: []CollectiveFigureSpec{{Name: "colbad",
			Cases: []CollectiveCaseSpec{{Cfg: cfgB, Schedule: "no-such-schedule", Volume: 64}}}}},
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
