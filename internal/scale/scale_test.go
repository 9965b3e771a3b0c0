package scale

import (
	"errors"
	"strings"
	"testing"
	"time"

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
