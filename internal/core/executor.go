package core

import (
	"encoding/json"
	"fmt"

	"sldf/internal/campaign"
	"sldf/internal/energy"
	"sldf/internal/metrics"
)

// PointJobKind is the registered executor for declarative load-point jobs.
// The version suffix guards the payload schema: a future incompatible
// PointSpec registers a new kind instead of reinterpreting shipped specs.
const PointJobKind = "core/point@v1"

// pointFamily is what a load-point job reports beside the measured point.
// Every family measures a PointSpec with the same executor body; each is a
// versioned job kind of its own, so a worker that predates a family rejects
// its jobs instead of answering them with a plain point, and each but the
// plain sweep suffixes the point key, so a family's results never share a
// store slot with a sweep point.
type pointFamily uint8

const (
	// sweepFamily is the plain load point of a latency series.
	sweepFamily pointFamily = iota
	// energyFamily is one Fig. 15 bar: Aux is [intra, inter] pJ/bit, the
	// delivered packets' hop mix priced by the Sec. V-C simplified model.
	energyFamily
	// resilienceFamily is one fault draw of a resilience curve: a typed
	// infeasible or watchdog-tripped draw is an outcome in Aux (see
	// resilienceOutcome), not an error.
	resilienceFamily
)

var pointFamilies = [...]struct{ kind, key string }{
	sweepFamily:      {PointJobKind, ""},
	energyFamily:     {"core/energy@v1", "|family=energy"},
	resilienceFamily: {"core/resilience@v1", "|family=resilience"},
}

// PointSpec is the declarative description of one load-point measurement —
// the unit the coordinator/worker protocol ships. Everything is plain data:
// a worker daemon that imports core can reconstruct and run the identical
// measurement from the JSON alone.
type PointSpec struct {
	Cfg     Config    `json:"cfg"`
	Pattern string    `json:"pattern"` // a PatternFor name
	Rate    float64   `json:"rate"`
	Sim     SimParams `json:"sim"`
}

func init() {
	for fam, f := range pointFamilies {
		campaign.RegisterExecutor(f.kind, func(w *campaign.Worker, payload json.RawMessage) (metrics.Point, error) {
			return runPointSpec(w, payload, pointFamily(fam))
		})
	}
}

// runPointSpec executes one PointSpec of a family on a campaign worker,
// reusing the worker's built system across specs that share a
// configuration (reset between points — bitwise identical to a fresh
// build).
func runPointSpec(w *campaign.Worker, payload json.RawMessage, fam pointFamily) (metrics.Point, error) {
	var ps PointSpec
	if err := json.Unmarshal(payload, &ps); err != nil {
		return metrics.Point{}, fmt.Errorf("core: decode point spec: %w", err)
	}
	res, err := measurePointSpec(w, ps)
	switch {
	case fam == resilienceFamily:
		return resilienceOutcome(res.Point, err, ps.Cfg.Faults)
	case err != nil:
		return metrics.Point{}, err
	case fam == energyFamily:
		e := energy.FromStats(res.Stats, energy.Simplified())
		res.Point.Aux = []float64{e.IntraCGroup, e.InterCGroup}
	}
	return res.Point, nil
}

// measurePointSpec builds (or resets) the spec's system on the worker and
// measures its load point.
func measurePointSpec(w *campaign.Worker, ps PointSpec) (Result, error) {
	if err := checkPoint(ps.Rate, ps.Sim); err != nil {
		return Result{}, err
	}
	sys, err := workerSystem(w, ps.Cfg.cacheID(), ps.Cfg)
	if err != nil {
		return Result{}, err
	}
	pat, err := sys.PatternFor(ps.Pattern)
	if err != nil {
		return Result{}, err
	}
	return sys.MeasureLoad(pat, ps.Rate, ps.Sim)
}

// PointJob builds the declarative job spec for one load point. The spec's
// key is the point's content address, so every store tier (the
// coordinator's, a daemon's, the disk cache) answers it whichever backend
// executes it. A point MeasureLoad would reject fails here with
// ErrSimParams.
func PointJob(cfg Config, pattern string, rate float64, sp SimParams) (campaign.JobSpec, error) {
	job, err := pointPlanJob(sweepFamily, cfg, pattern, rate, sp)
	return job.spec, err
}

// pointPlanJob lowers one load point of a family to a fan-out job on cfg's
// system: the family picks the job kind and suffixes the key.
func pointPlanJob(fam pointFamily, cfg Config, pattern string, rate float64, sp SimParams) (planJob, error) {
	if err := checkPoint(rate, sp); err != nil {
		return planJob{}, err
	}
	payload, err := json.Marshal(PointSpec{Cfg: cfg, Pattern: pattern, Rate: rate, Sim: sp})
	if err != nil {
		return planJob{}, fmt.Errorf("core: encode point spec: %w", err)
	}
	return planJob{spec: campaign.JobSpec{
		Key:     pointKey(cfg, pattern, rate, sp) + pointFamilies[fam].key,
		Kind:    pointFamilies[fam].kind,
		Payload: payload,
	}, sys: cfg.cacheID()}, nil
}
