package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"sldf/internal/campaign"
	"sldf/internal/collective"
	"sldf/internal/metrics"
	"sldf/internal/netsim"
)

// This file answers "what does a chip death at step k cost an in-flight
// AllReduce?" as a first-class experiment family: a declarative
// ChurnCollectiveSpec runs a collective to step k, kills a chip through the
// armed fault timeline (routing recomputes, stranded packets drop or retry
// per policy), recomputes the schedule over the survivors, and finishes on
// it — all through the registered executor, so churn cases get the same
// content-addressed caching and remote sharding as every other job kind.

// ChurnJobKind is the registered executor for mid-collective death jobs.
const ChurnJobKind = "collective/churn@v1"

// ChurnCollectiveSpec describes one churn-collective execution. Pure data,
// so it ships to worker daemons unchanged. Cfg.Churn must be armed (the
// executor arms a zero-event timeline when it is not), because the kill is
// injected through the network's churn machinery.
type ChurnCollectiveSpec struct {
	Cfg Config `json:"cfg"`
	// Schedule is a CollectiveSchedules name, resolved against the built
	// system (and re-resolved against the survivors after the kill).
	Schedule string `json:"schedule"`
	// Volume is the AllReduce payload per chip in flits.
	Volume int64 `json:"volume"`
	// PacketSize is the packet length in flits (0 = DefaultCollectivePacket).
	PacketSize int32 `json:"packet,omitempty"`
	// MaxStepCycles bounds each dependent step (0 = collective.Run default).
	MaxStepCycles int64 `json:"max_step_cycles,omitempty"`
	// Engine selects the cycle engine; the non-default engine gets its own
	// cache slot.
	Engine netsim.EngineKind `json:"engine,omitempty"`
	// KillChip is the chip that dies mid-collective; negative runs the
	// undisturbed baseline.
	KillChip int32 `json:"kill_chip"`
	// KillStep is the dependent step before which the chip dies: steps
	// [0, KillStep) run on the full schedule, then the kill, then the
	// survivor schedule's remaining steps.
	KillStep int `json:"kill_step"`
}

func init() {
	campaign.RegisterExecutor(ChurnJobKind, runChurnJob)
}

func runChurnJob(w *campaign.Worker, payload json.RawMessage) (metrics.Point, error) {
	var cs ChurnCollectiveSpec
	if err := json.Unmarshal(payload, &cs); err != nil {
		return metrics.Point{}, fmt.Errorf("core: decode churn spec: %w", err)
	}
	// The kill is injected through the timeline machinery, so force it on:
	// an armed zero-event timeline builds fault-grade and simulates bitwise
	// identically to the corresponding static-fault build.
	cs.Cfg.Churn.Armed = true
	sys, err := workerSystem(w, cs.Cfg.cacheID(), cs.Cfg)
	if err != nil {
		return metrics.Point{}, err
	}
	return sys.MeasureChurnCollective(cs)
}

func (cs ChurnCollectiveSpec) packet() int32 {
	if cs.PacketSize <= 0 {
		return DefaultCollectivePacket
	}
	return cs.PacketSize
}

// churnKey is the content address of one churn job; the armed timeline is
// part of cacheID, and the kill coordinates complete it.
//
//sldf:cachekey ChurnCollectiveSpec
func churnKey(cs ChurnCollectiveSpec) string {
	cfg := cs.Cfg
	cfg.Churn.Armed = true
	key := fmt.Sprintf("%s|churncollective=%s|vol=%d|pkt=%d|maxstep=%d|kill=%d@%d",
		cfg.cacheID(), cs.Schedule, cs.Volume, cs.packet(), cs.MaxStepCycles,
		cs.KillChip, cs.KillStep)
	if cs.Engine != netsim.EngineActiveSet {
		key += "|engine=" + cs.Engine.String()
	}
	return key
}

// ChurnJob builds the declarative job spec for one churn-collective case.
func ChurnJob(cs ChurnCollectiveSpec) (campaign.JobSpec, error) {
	payload, err := json.Marshal(cs)
	if err != nil {
		return campaign.JobSpec{}, fmt.Errorf("core: encode churn spec: %w", err)
	}
	return campaign.JobSpec{
		Key:     churnKey(cs),
		Kind:    ChurnJobKind,
		Payload: payload,
	}, nil
}

// MeasureChurnCollective runs one churn-collective case on the system,
// returning its result encoded as a campaign point:
//
//	Rate       = offered volume (flits/chip)
//	Latency    = end-to-end makespan including the disturbance (cycles)
//	P50 / P99  = median / maximum step makespan
//	Throughput = delivered flits/cycle/chip over the makespan
//	Aux        = [packets, pre-kill cycles, post-kill cycles,
//	              dropped, retried, step 0 cycles, step 1 cycles, ...]
//
// A negative KillChip measures the undisturbed baseline (pre-kill cycles =
// the whole makespan). Cycle and packet counts are integers carried exactly
// in float64, so the encoding round-trips bit-identically through stores.
func (s *System) MeasureChurnCollective(cs ChurnCollectiveSpec) (metrics.Point, error) {
	if !s.Net.ChurnArmed() {
		return metrics.Point{}, fmt.Errorf("core: churn collective on %s without an armed timeline", s.Label)
	}
	s.Net.SetEngine(cs.Engine)
	sch, err := ScheduleFor(s, cs.Schedule, cs.Volume)
	if err != nil {
		return metrics.Point{}, err
	}

	// Step ranges run through the case's engine: the cycle engines drain to
	// exact barriers, the flow engine solves each step analytically.
	runRange := func(sch collective.Schedule, lo, hi int) (collective.Result, error) {
		if cs.Engine == netsim.EngineFlow {
			return collective.RunStepsFlow(s.Net, sch, cs.packet(), lo, hi)
		}
		return collective.RunSteps(s.Net, sch, cs.packet(), cs.MaxStepCycles, lo, hi)
	}

	var pre, post collective.Result
	if cs.KillChip < 0 {
		pre, err = runRange(sch, 0, len(sch.Steps))
		if err != nil {
			return metrics.Point{}, fmt.Errorf("%s/%s baseline: %w", s.Label, cs.Schedule, err)
		}
	} else {
		k := cs.KillStep
		if k < 0 {
			k = 0
		}
		if k > len(sch.Steps) {
			k = len(sch.Steps)
		}
		pre, err = runRange(sch, 0, k)
		if err != nil {
			return metrics.Point{}, fmt.Errorf("%s/%s pre-kill: %w", s.Label, cs.Schedule, err)
		}
		if err := s.ApplyChipKill(cs.KillChip); err != nil {
			return metrics.Point{}, fmt.Errorf("%s/%s kill chip %d: %w", s.Label, cs.Schedule, cs.KillChip, err)
		}
		// The survivors re-close the collective: resolve the schedule again
		// over the degraded chip tables and run its remaining steps. Steps
		// already executed count as done — the survivor schedule is entered
		// at the same step index (clamped; it may be shorter).
		surv, err := ScheduleFor(s, cs.Schedule, cs.Volume)
		if err != nil {
			return metrics.Point{}, fmt.Errorf("%s/%s survivors: %w", s.Label, cs.Schedule, err)
		}
		lo := k
		if lo > len(surv.Steps) {
			lo = len(surv.Steps)
		}
		post, err = runRange(surv, lo, len(surv.Steps))
		if err != nil {
			return metrics.Point{}, fmt.Errorf("%s/%s post-kill: %w", s.Label, cs.Schedule, err)
		}
	}

	st := s.Net.Snapshot()
	total := pre.Cycles + post.Cycles
	packets := pre.Packets + post.Packets
	pt := metrics.Point{Rate: float64(cs.Volume), Latency: float64(total)}
	if total > 0 {
		pt.Throughput = float64(packets) * float64(cs.packet()) /
			float64(total) / float64(s.Chips)
	}
	steps := append(append([]int64(nil), pre.StepCycles...), post.StepCycles...)
	if n := len(steps); n > 0 {
		sorted := append([]int64(nil), steps...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		pt.P50 = float64(sorted[n/2])
		pt.P99 = float64(sorted[n-1])
	}
	pt.Aux = make([]float64, 0, 5+len(steps))
	pt.Aux = append(pt.Aux, float64(packets), float64(pre.Cycles), float64(post.Cycles),
		float64(st.DroppedPkts), float64(st.RetriedPkts))
	for _, c := range steps {
		pt.Aux = append(pt.Aux, float64(c))
	}
	return pt, nil
}

// ChurnCaseSpec is one row of a churn figure: a schedule on a system with a
// chip killed before a given step. Each case measures two jobs — the
// undisturbed baseline and the disturbed run — so the row carries the exact
// cost of the death.
type ChurnCaseSpec struct {
	Cfg      Config
	Schedule string
	// Label overrides the config-derived system label when non-empty.
	Label         string
	Volume        int64
	PacketSize    int32
	MaxStepCycles int64
	Engine        netsim.EngineKind
	KillChip      int32
	KillStep      int
}

// Spec lowers the case to its disturbed-run job description; baseline()
// is the same case with the kill removed.
func (c ChurnCaseSpec) Spec() ChurnCollectiveSpec {
	return ChurnCollectiveSpec{Cfg: c.Cfg, Schedule: c.Schedule, Volume: c.Volume,
		PacketSize: c.PacketSize, MaxStepCycles: c.MaxStepCycles, Engine: c.Engine,
		KillChip: c.KillChip, KillStep: c.KillStep}
}

func (c ChurnCaseSpec) baseline() ChurnCollectiveSpec {
	cs := c.Spec()
	cs.KillChip = -1
	cs.KillStep = 0
	return cs
}

// ChurnFigureSpec is one churn-resilience panel: a named list of cases.
type ChurnFigureSpec struct {
	Name, Title string
	Cases       []ChurnCaseSpec
}

// ChurnRowFromPoints decodes a case's baseline and disturbed points into
// the row the figure renders.
func ChurnRowFromPoints(c ChurnCaseSpec, label string, base, kill metrics.Point) metrics.ChurnRow {
	row := metrics.ChurnRow{
		System:         label,
		Schedule:       c.Schedule,
		KillChip:       c.KillChip,
		KillStep:       c.KillStep,
		BaselineCycles: int64(base.Latency),
		Cycles:         int64(kill.Latency),
	}
	row.CostCycles = row.Cycles - row.BaselineCycles
	if len(kill.Aux) >= 5 {
		row.Packets = int64(kill.Aux[0])
		row.PreCycles = int64(kill.Aux[1])
		row.PostCycles = int64(kill.Aux[2])
		row.Dropped = int64(kill.Aux[3])
		row.Retried = int64(kill.Aux[4])
		row.StepCycles = make([]int64, 0, len(kill.Aux)-5)
		for _, s := range kill.Aux[5:] {
			row.StepCycles = append(row.StepCycles, int64(s))
		}
	}
	row.Steps = len(row.StepCycles)
	return row
}

// RunChurnFigure measures every case of a churn panel through the Backend
// seam: each case becomes two content-addressed jobs (baseline, disturbed)
// executed by the local pool or a worker fleet, satisfied from the store
// when present, and merged by case index — byte-identical however they run.
func RunChurnFigure(fs ChurnFigureSpec, opts RunOptions) (metrics.ChurnFigure, error) {
	fig := metrics.ChurnFigure{Name: fs.Name, Title: fs.Title}
	specs := make([]campaign.JobSpec, 0, 2*len(fs.Cases))
	for _, c := range fs.Cases {
		base, err := ChurnJob(c.baseline())
		if err != nil {
			return fig, fmt.Errorf("%s: %w", fs.Name, err)
		}
		kill, err := ChurnJob(c.Spec())
		if err != nil {
			return fig, fmt.Errorf("%s: %w", fs.Name, err)
		}
		specs = append(specs, base, kill)
	}
	pts, err := opts.execute(specs)
	if err != nil {
		return fig, fmt.Errorf("%s: %w", fs.Name, err)
	}
	fig.Rows = make([]metrics.ChurnRow, len(fs.Cases))
	for i, c := range fs.Cases {
		label := c.Label
		if label == "" {
			label = c.Cfg.Label()
		}
		fig.Rows[i] = ChurnRowFromPoints(c, label, pts[2*i], pts[2*i+1])
	}
	return fig, nil
}
