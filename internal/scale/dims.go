package scale

import (
	"encoding/json"
	"fmt"
	"time"

	"sldf/internal/campaign"
	"sldf/internal/core"
	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// simParams is the quick validation run every step performs: long enough to
// exercise injection, multi-hop routing and ejection on every system, short
// enough that wall time stays dominated by the build at large scale.
func simParams() core.SimParams {
	return core.SimParams{Warmup: 100, Measure: 200, ExtraDrain: 100, PacketSize: 4}
}

// validationRate is the offered load of the validation run (flits/cycle/chip):
// low, so giant systems are checked for structural health, not saturation.
const validationRate = 0.1

// ChipsDimension grows the number of terminal chips of one system kind
// along the paper's balanced radix family until a build or validation fails
// or the budget trips. For the Dragonfly kinds the ladder first walks
// single-W-group instances of increasing radix (tens of chips), then the
// full balanced systems (radix-16: 1312 chips, radix-24: 6120, radix-32:
// 18560, and beyond).
//
// eng selects the validation run's engine. Under netsim.EngineFlow a step's
// cost is dominated by the build rather than the cycle loop, so the ladder
// climbs rungs far past the cycle engines' ceiling; a non-default engine is
// recorded in the dimension name so its trajectory never mixes with
// cycle-engine baselines. flowWorkers parallelizes the flow solve's
// trace/waterfill phases (result-identical, so the trajectory is still
// comparable across values); it is ignored by the cycle engines.
func ChipsDimension(kind core.SystemKind, workers int, eng netsim.EngineKind, flowWorkers int) Dimension {
	name := "chips/" + kind.String()
	if eng != netsim.EngineActiveSet {
		name += "/" + eng.String()
	}
	return Dimension{
		Name: name,
		Step: func(i int) (Step, bool) {
			cfg, label, ok := chipsConfig(kind, i)
			if !ok {
				return Step{}, false
			}
			cfg.Seed = 1
			cfg.Workers = workers
			return Step{Label: label, Run: func() (StepInfo, error) {
				return measureSystem(cfg, eng, flowWorkers)
			}}, true
		},
	}
}

// chipsConfig returns the i-th rung of the growth ladder for kind.
func chipsConfig(kind core.SystemKind, i int) (core.Config, string, bool) {
	switch kind {
	case core.SwitchlessDragonfly:
		if i < 3 { // single-W-group ladder: 32, 72, 128 chips
			k := i + 2
			return core.Config{Kind: kind, SLDF: sldfFamily(k, 1)},
				fmt.Sprintf("radix%d-g1", 8*k), true
		}
		k := i - 1 // full balanced systems: 1312, 6120, 18560, ...
		return core.Config{Kind: kind, SLDF: sldfFamily(k, 0)},
			fmt.Sprintf("radix%d-full", 8*k), true
	case core.SwitchDragonfly:
		if i < 3 {
			k := i + 2
			return core.Config{Kind: kind, DF: dfFamily(k, 1)},
				fmt.Sprintf("radix%d-g1", 8*k), true
		}
		k := i - 1
		return core.Config{Kind: kind, DF: dfFamily(k, 0)},
			fmt.Sprintf("radix%d-full", 8*k), true
	case core.SingleSwitch:
		t := 32 << i
		return core.Config{Kind: kind, Terminals: t},
			fmt.Sprintf("terminals%d", t), true
	case core.MeshCGroup:
		d := 2 << i
		return core.Config{Kind: kind, ChipletDim: d, NoCDim: 2},
			fmt.Sprintf("mesh%dx%d", d, d), true
	}
	return core.Config{}, "", false
}

// sldfFamily returns the balanced switch-less system of external radix 8k:
// 2k chips per C-group, 4k C-groups per W-group, 2k+1 global ports.
func sldfFamily(k, g int) topology.SLDFParams {
	return topology.SLDFParams{NoCDim: 2, ChipCols: k, ChipRows: 2, AB: 4 * k, H: 2*k + 1, G: g}
}

// dfFamily is the matching switch-based baseline of the same radix.
func dfFamily(k, g int) topology.DragonflyParams {
	return topology.DragonflyParams{P: 2 * k, A: 4 * k, H: 2*k + 1, G: g}
}

// FaultFractionDimension grows the injected link-fault fraction on a fixed
// small system of the given kind, in 2.5% steps, until the degraded build
// fails (disconnected survivors), fault-aware routing gives up, or the
// validation run stops delivering packets.
func FaultFractionDimension(kind core.SystemKind, workers int) Dimension {
	return Dimension{
		Name: "fault-fraction/" + kind.String(),
		Step: func(i int) (Step, bool) {
			f := 0.025 * float64(i+1)
			if f > 0.95 {
				return Step{}, false
			}
			cfg := baseConfig(kind)
			cfg.Seed = 1
			cfg.Workers = workers
			cfg.Faults = topology.FaultSpec{Seed: 7, LinkFraction: f}
			return Step{
				Label: fmt.Sprintf("links%.1f%%", 100*f),
				Value: f,
				Run: func() (StepInfo, error) {
					info, err := measureSystem(cfg, netsim.EngineActiveSet, 0)
					info.Value = f // the coordinate is the fraction, not chips
					return info, err
				},
			}, true
		},
	}
}

// JobsDimension doubles the number of concurrent campaign jobs — each job
// builds its own small system of the given kind and measures one load point
// — until a job fails or the budget trips. Its ceiling is the concurrency
// the memory budget sustains, since every in-flight job holds a full system.
// The jobs are validateJobKind specs on the local campaign pool, one
// goroutine per job.
func JobsDimension(kind core.SystemKind, workers int) Dimension {
	return Dimension{
		Name: "jobs/" + kind.String(),
		Step: func(i int) (Step, bool) {
			j := 1 << i
			if j > 256 {
				return Step{}, false
			}
			return Step{
				Label: fmt.Sprintf("jobs%d", j),
				Value: float64(j),
				Run: func() (StepInfo, error) {
					info := StepInfo{Value: float64(j)}
					specs := make([]campaign.JobSpec, j)
					for idx := range specs {
						cfg := baseConfig(kind)
						cfg.Seed = uint64(idx + 1)
						cfg.Workers = workers
						payload, err := json.Marshal(cfg)
						if err != nil {
							return info, err
						}
						specs[idx] = campaign.JobSpec{Kind: validateJobKind, Payload: payload}
					}
					t0 := time.Now()
					pts, err := campaign.LocalBackend{}.Execute(specs, campaign.ExecOptions{Jobs: j})
					info.SimWall = time.Since(t0)
					info.HeapBytes = HeapLive()
					if err != nil {
						return info, err
					}
					for _, pt := range pts {
						if pt.Throughput <= 0 {
							return info, fmt.Errorf("job produced zero throughput")
						}
					}
					return info, nil
				},
			}, true
		},
	}
}

// validateJobKind is the jobs dimension's executor. Its payload is a
// core.Config; the job builds that system afresh (one system per job,
// nothing held on the worker) and runs validationRun, whose health check
// core's point executor lacks.
const validateJobKind = "scale/validate@v1"

func init() {
	campaign.RegisterExecutor(validateJobKind, func(_ *campaign.Worker, payload json.RawMessage) (metrics.Point, error) {
		var cfg core.Config
		if err := json.Unmarshal(payload, &cfg); err != nil {
			return metrics.Point{}, fmt.Errorf("scale: decode validate job: %w", err)
		}
		sys, err := core.Build(cfg)
		if err != nil {
			return metrics.Point{}, err
		}
		defer sys.Close()
		res, err := validationRun(sys, simParams())
		return res.Point, err
	})
}

// baseConfig is the fixed small system the fault and jobs dimensions grow
// around: large enough to have interesting structure, small enough that a
// step is cheap.
func baseConfig(kind core.SystemKind) core.Config {
	switch kind {
	case core.SwitchlessDragonfly:
		p := core.Radix16SLDF()
		p.G = 1
		return core.Config{Kind: kind, SLDF: p}
	case core.SwitchDragonfly:
		p := core.Radix16DF()
		p.G = 1
		return core.Config{Kind: kind, DF: p}
	case core.SingleSwitch:
		return core.Config{Kind: kind, Terminals: 32}
	default:
		return core.Config{Kind: core.MeshCGroup, ChipletDim: 4, NoCDim: 2}
	}
}

// measureSystem builds cfg, captures its footprint, runs the validation
// load point on the given engine (and flow-solver worker count), and checks
// the run's structural health.
func measureSystem(cfg core.Config, eng netsim.EngineKind, flowWorkers int) (StepInfo, error) {
	var info StepInfo
	t0 := time.Now()
	sys, err := core.Build(cfg)
	if err != nil {
		return info, err
	}
	defer sys.Close()
	info.BuildWall = time.Since(t0)
	info.Chips = sys.Chips
	info.Value = float64(sys.Chips)
	info.HeapBytes = HeapLive()
	sp := simParams()
	sp.Engine = eng
	sp.FlowWorkers = flowWorkers
	t1 := time.Now()
	_, err = validationRun(sys, sp)
	info.SimWall = time.Since(t1)
	return info, err
}

// validationRun measures the validation load point (uniform traffic) on a
// built system and checks the run's structural health.
func validationRun(sys *core.System, sp core.SimParams) (core.Result, error) {
	pat, err := sys.PatternFor("uniform")
	if err != nil {
		return core.Result{}, err
	}
	res, err := sys.MeasureLoad(pat, validationRate, sp)
	if err == nil {
		err = validateStats(res)
	}
	return res, err
}

// validateStats checks the structural health of a validation run: traffic
// flowed, nothing deadlocked, and packet conservation held.
func validateStats(res core.Result) error {
	st := res.Stats
	if st.WatchdogTrips > 0 {
		return fmt.Errorf("progress watchdog tripped %d times", st.WatchdogTrips)
	}
	if st.DeliveredPkts == 0 {
		return fmt.Errorf("no packets delivered")
	}
	if st.DeliveredPkts > st.InjectedPkts {
		return fmt.Errorf("conservation violated: delivered %d > injected %d",
			st.DeliveredPkts, st.InjectedPkts)
	}
	return nil
}
