package core

import (
	"encoding/json"
	"fmt"

	"sldf/internal/campaign"
	"sldf/internal/metrics"
)

// PointJobKind is the registered executor for declarative load-point jobs.
// The version suffix guards the payload schema: a future incompatible
// PointSpec registers a new kind instead of reinterpreting shipped specs.
const PointJobKind = "core/point@v1"

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
	campaign.RegisterExecutor(PointJobKind, runPointSpec)
}

// runPointSpec executes one PointSpec on a campaign worker, reusing the
// worker's built system across specs that share a configuration (reset
// between points — bitwise identical to a fresh build).
func runPointSpec(w *campaign.Worker, payload json.RawMessage) (metrics.Point, error) {
	var ps PointSpec
	if err := json.Unmarshal(payload, &ps); err != nil {
		return metrics.Point{}, fmt.Errorf("core: decode point spec: %w", err)
	}
	if err := checkPoint(ps.Rate, ps.Sim); err != nil {
		return metrics.Point{}, err
	}
	sys, err := workerSystem(w, ps.Cfg.cacheID(), ps.Cfg)
	if err != nil {
		return metrics.Point{}, err
	}
	pat, err := sys.PatternFor(ps.Pattern)
	if err != nil {
		return metrics.Point{}, err
	}
	res, err := sys.MeasureLoad(pat, ps.Rate, ps.Sim)
	if err != nil {
		return metrics.Point{}, err
	}
	return res.Point, nil
}

// PointJob builds the declarative job spec for one load point. The spec's
// key is the point's content address (identical to the closure path's cache
// key), so caches and stores are shared between execution styles. A point
// MeasureLoad would reject fails here with ErrSimParams.
func PointJob(cfg Config, pattern string, rate float64, sp SimParams) (campaign.JobSpec, error) {
	if err := checkPoint(rate, sp); err != nil {
		return campaign.JobSpec{}, err
	}
	payload, err := json.Marshal(PointSpec{Cfg: cfg, Pattern: pattern, Rate: rate, Sim: sp})
	if err != nil {
		return campaign.JobSpec{}, fmt.Errorf("core: encode point spec: %w", err)
	}
	return campaign.JobSpec{
		Key:     pointKey(cfg, pattern, rate, sp),
		Kind:    PointJobKind,
		Payload: payload,
	}, nil
}
