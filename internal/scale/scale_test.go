package scale

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"sldf/internal/campaign"
	"sldf/internal/core"
	"sldf/internal/netsim"
)

// synthetic builds a dimension whose i-th step reports the given infos and
// fails from step failAt on (-1 = never).
func synthetic(n int, failAt int, info StepInfo) Dimension {
	return Dimension{
		Name: "synthetic",
		Step: func(i int) (Step, bool) {
			if i >= n {
				return Step{}, false
			}
			return Step{
				Label: "step",
				Value: float64(i + 1),
				Run: func() (StepInfo, error) {
					if failAt >= 0 && i >= failAt {
						return StepInfo{}, errors.New("synthetic failure")
					}
					return info, nil
				},
			}, true
		},
	}
}

func TestRunValidationTrip(t *testing.T) {
	rep := Run(synthetic(10, 3, StepInfo{Chips: 4, HeapBytes: 1 << 20}), Budget{}, nil)
	if rep.Tripped != TripValidation {
		t.Fatalf("tripped %q, want %q", rep.Tripped, TripValidation)
	}
	if len(rep.Samples) != 4 {
		t.Fatalf("%d samples, want 4 (3 passing + the failure)", len(rep.Samples))
	}
	if rep.Ceiling == nil || rep.Ceiling.Value != 3 {
		t.Fatalf("ceiling %+v, want value 3", rep.Ceiling)
	}
	last := rep.Samples[3]
	if last.OK || !strings.Contains(last.Err, "synthetic failure") {
		t.Fatalf("failing sample not recorded: %+v", last)
	}
	if rep.Ceiling.HeapPerChip != float64(1<<20)/4 {
		t.Fatalf("heap per chip %v", rep.Ceiling.HeapPerChip)
	}
}

func TestRunEndOfRange(t *testing.T) {
	rep := Run(synthetic(2, -1, StepInfo{}), Budget{}, nil)
	if rep.Tripped != TripEnd || len(rep.Samples) != 2 {
		t.Fatalf("tripped %q with %d samples", rep.Tripped, len(rep.Samples))
	}
	if rep.Ceiling == nil || rep.Ceiling.Value != 2 {
		t.Fatalf("ceiling %+v", rep.Ceiling)
	}
}

func TestRunMaxStepsTrip(t *testing.T) {
	rep := Run(synthetic(10, -1, StepInfo{}), Budget{MaxSteps: 2}, nil)
	if rep.Tripped != TripSteps || len(rep.Samples) != 2 {
		t.Fatalf("tripped %q with %d samples", rep.Tripped, len(rep.Samples))
	}
}

func TestRunWallBudgetTrip(t *testing.T) {
	info := StepInfo{BuildWall: time.Hour}
	rep := Run(synthetic(10, -1, info), Budget{MaxStepWall: time.Minute}, nil)
	if rep.Tripped != TripWall {
		t.Fatalf("tripped %q, want %q", rep.Tripped, TripWall)
	}
	// The over-budget step itself still counts toward the ceiling.
	if len(rep.Samples) != 1 || rep.Ceiling == nil || rep.Ceiling.Value != 1 {
		t.Fatalf("samples %d ceiling %+v", len(rep.Samples), rep.Ceiling)
	}
}

func TestRunValueOverride(t *testing.T) {
	rep := Run(synthetic(1, -1, StepInfo{Value: 42}), Budget{}, nil)
	if rep.Ceiling == nil || rep.Ceiling.Value != 42 {
		t.Fatalf("ceiling %+v, want value 42 from StepInfo override", rep.Ceiling)
	}
}

// TestChipsDimensionSmoke drives one real rung of every system kind's chip
// ladder end to end: build, footprint capture, validation sim.
func TestChipsDimensionSmoke(t *testing.T) {
	for _, kind := range []core.SystemKind{
		core.SwitchlessDragonfly, core.SwitchDragonfly, core.SingleSwitch, core.MeshCGroup,
	} {
		rep := Run(ChipsDimension(kind, 1, netsim.EngineActiveSet, 0), Budget{MaxSteps: 1}, t.Logf)
		if rep.Tripped != TripSteps {
			t.Fatalf("%v: tripped %q (samples %+v)", kind, rep.Tripped, rep.Samples)
		}
		c := rep.Ceiling
		if c == nil || !c.OK || c.Chips == 0 || c.HeapMB <= 0 || c.HeapPerChip <= 0 {
			t.Fatalf("%v: bad ceiling %+v", kind, c)
		}
		if c.Value != float64(c.Chips) {
			t.Fatalf("%v: value %v != chips %d", kind, c.Value, c.Chips)
		}
	}
}

func TestFaultFractionDimensionSmoke(t *testing.T) {
	rep := Run(FaultFractionDimension(core.SwitchlessDragonfly, 1), Budget{MaxSteps: 2}, t.Logf)
	if rep.Tripped != TripSteps {
		t.Fatalf("tripped %q (samples %+v)", rep.Tripped, rep.Samples)
	}
	if rep.Ceiling == nil || rep.Ceiling.Value != 0.05 {
		t.Fatalf("ceiling %+v, want fraction 0.05", rep.Ceiling)
	}
}

func TestJobsDimensionSmoke(t *testing.T) {
	rep := Run(JobsDimension(core.MeshCGroup, 1), Budget{MaxSteps: 2}, t.Logf)
	if rep.Tripped != TripSteps {
		t.Fatalf("tripped %q (samples %+v)", rep.Tripped, rep.Samples)
	}
	if rep.Ceiling == nil || rep.Ceiling.Value != 2 {
		t.Fatalf("ceiling %+v, want 2 jobs", rep.Ceiling)
	}
}

// TestValidateJob checks the jobs dimension's executor: a healthy job
// returns the point a direct measurement of its configuration gives, and a
// job whose run deadlocks (a one-cycle watchdog trips on ordinary
// queueing) fails with its index. A scale run whose step executes that job
// stops with TripWatchdog.
func TestValidateJob(t *testing.T) {
	cfg := baseConfig(core.MeshCGroup)
	cfg.Seed = 1
	healthy, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pat, err := sys.PatternFor("uniform")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.MeasureLoad(pat, validationRate, simParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg.WatchdogCycles = 1
	tripped, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := campaign.LocalBackend{}.Execute([]campaign.JobSpec{
		{Kind: validateJobKind, Payload: healthy},
		{Kind: validateJobKind, Payload: tripped},
	}, campaign.ExecOptions{Jobs: 2})
	var je *campaign.JobError
	if !errors.As(err, &je) || je.Index != 1 || !errors.Is(err, netsim.ErrDeadlock) {
		t.Fatalf("err = %v, want job 1's deadlock", err)
	}
	if !reflect.DeepEqual(pts[0], want.Point) {
		t.Fatalf("healthy job point %+v, want %+v", pts[0], want.Point)
	}
	rep := Run(Dimension{Name: "watchdog", Step: func(i int) (Step, bool) {
		return Step{Label: "tripped", Value: 1, Run: func() (StepInfo, error) {
			_, err := campaign.LocalBackend{}.Execute([]campaign.JobSpec{{Kind: validateJobKind, Payload: tripped}},
				campaign.ExecOptions{Jobs: 1})
			return StepInfo{}, err
		}}, i == 0
	}}, Budget{}, nil)
	if rep.Tripped != TripWatchdog || len(rep.Samples) != 1 || !strings.Contains(rep.Samples[0].Err, "no progress") {
		t.Fatalf("scale run over the deadlocking job: tripped %q, samples %+v; want %q", rep.Tripped, rep.Samples, TripWatchdog)
	}
}

// TestValidateStats checks each health rule the jobs dimension's executor
// applies to every job.
func TestValidateStats(t *testing.T) {
	for _, c := range []struct {
		st   netsim.Stats
		want string
	}{
		{netsim.Stats{InjectedPkts: 5, DeliveredPkts: 5}, ""},
		{netsim.Stats{InjectedPkts: 5}, "no packets delivered"},
		{netsim.Stats{InjectedPkts: 5, DeliveredPkts: 6}, "conservation"},
	} {
		err := validateStats(core.Result{Stats: c.st})
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("stats %+v: err = %v, want %q", c.st, err, c.want)
		}
	}
}
