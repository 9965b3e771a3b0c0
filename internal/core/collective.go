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

// This file promotes collective-communication measurements (paper Fig. 4's
// latency argument) to a first-class experiment family of the campaign
// pipeline: a declarative CollectiveSpec executed by a registered job kind,
// so collective makespans get the same content-addressed caching, local
// fan-out and remote sharding as sweep load points — instead of the
// CLI-only corner they used to live in. An optional ChipKill turns the same
// job into the churn experiment: "what does a chip death at step k cost an
// in-flight AllReduce?"

// CollectiveJobKind is the registered executor for declarative collective
// makespan jobs. Versioned like core/point@v1: an incompatible spec change
// registers a new kind rather than reinterpreting shipped payloads (v2 added
// Kill, which a v1 worker would silently ignore).
const CollectiveJobKind = "collective/makespan@v2"

// DefaultCollectivePacket is the packet size collective jobs use when the
// spec leaves PacketSize zero (paper Table IV default).
const DefaultCollectivePacket = 4

// CollectiveSpec is the declarative description of one collective
// execution: a schedule resolved against a system, run step-by-step to its
// exact makespan. Pure data, so it ships to worker daemons unchanged.
type CollectiveSpec struct {
	Cfg Config `json:"cfg"`
	// Schedule is a CollectiveSchedules name ("ring", "2d", "hierarchical",
	// ...), resolved against the built system by ScheduleFor.
	Schedule string `json:"schedule"`
	// Volume is the AllReduce payload per chip in flits.
	Volume int64 `json:"volume"`
	// PacketSize is the packet length in flits (0 = DefaultCollectivePacket).
	PacketSize int32 `json:"packet,omitempty"`
	// MaxStepCycles bounds each dependent step on the cycle engines (0 = the
	// collective.RunSteps default, 1<<20); the flow engine solves each step
	// outright and ignores it.
	MaxStepCycles int64 `json:"max_step_cycles,omitempty"`
	// Engine selects the engine; the cycle engines measure identical
	// makespans and the non-default engine gets its own cache slot (a
	// reference cross-check must simulate, not replay the active-set result).
	Engine netsim.EngineKind `json:"engine,omitempty"`
	// Kill, when set, kills a chip mid-collective. The kill is injected
	// through the network's churn machinery, so Cfg.Churn must be armed.
	Kill *ChipKill `json:"kill,omitempty"`
}

// ChipKill is a chip death between two dependent steps: steps [0, Step)
// run on the full schedule, then Chip dies (routing recomputes, stranded
// packets drop or retry per the timeline's policy), then the schedule
// re-resolved over the survivors runs its remaining steps.
type ChipKill struct {
	Chip int32 `json:"chip"`
	Step int   `json:"step"`
}

func init() {
	campaign.RegisterExecutor(CollectiveJobKind, runCollectiveJob)
}

// runCollectiveJob executes one CollectiveSpec on a campaign worker,
// reusing the worker's built system across jobs that share a configuration.
func runCollectiveJob(w *campaign.Worker, payload json.RawMessage) (metrics.Point, error) {
	var cs CollectiveSpec
	if err := json.Unmarshal(payload, &cs); err != nil {
		return metrics.Point{}, fmt.Errorf("core: decode collective spec: %w", err)
	}
	if err := cs.check(); err != nil {
		return metrics.Point{}, err
	}
	sys, err := workerSystem(w, cs.Cfg.cacheID(), cs.Cfg)
	if err != nil {
		return metrics.Point{}, err
	}
	return sys.MeasureCollective(cs)
}

// collectiveKey is the content address of one collective job; like
// pointKey it covers every result-affecting input, and a non-default
// engine gets a distinct slot. The kill is appended only when set, so a
// spec without one keeps the address it had before kills existed.
//
//sldf:cachekey CollectiveSpec
//sldf:cachekey ChipKill
func collectiveKey(cs CollectiveSpec) string {
	key := fmt.Sprintf("%s|collective=%s|vol=%d|pkt=%d|maxstep=%d",
		cs.Cfg.cacheID(), cs.Schedule, cs.Volume, cs.packet(), cs.MaxStepCycles)
	if cs.Engine != netsim.EngineActiveSet {
		key += "|engine=" + cs.Engine.String()
	}
	if cs.Kill != nil {
		key += fmt.Sprintf("|kill=%d@%d", cs.Kill.Chip, cs.Kill.Step)
	}
	return key
}

// check rejects a spec no engine can measure with ErrSimParams, the way
// checkPoint rejects a load point: a volume that is not positive, a
// negative packet size or step bound, or a kill before a negative step. A
// kill past the schedule's last step needs the schedule, so
// MeasureCollective rejects it.
func (cs CollectiveSpec) check() error {
	switch {
	case cs.Volume <= 0:
		return fmt.Errorf("%w: collective volume %d (want > 0)", ErrSimParams, cs.Volume)
	case cs.PacketSize < 0:
		return fmt.Errorf("%w: packet size %d flits (want >= 0, 0 = default)", ErrSimParams, cs.PacketSize)
	case cs.MaxStepCycles < 0:
		return fmt.Errorf("%w: step bound %d cycles (want >= 0, 0 = default)", ErrSimParams, cs.MaxStepCycles)
	case cs.Kill != nil && cs.Kill.Step < 0:
		return fmt.Errorf("%w: kill before step %d (want >= 0)", ErrSimParams, cs.Kill.Step)
	}
	return nil
}

func (cs CollectiveSpec) packet() int32 {
	if cs.PacketSize == 0 {
		return DefaultCollectivePacket
	}
	return cs.PacketSize
}

// CollectiveJob builds the declarative job spec for one collective
// execution, shareable between the local pool, stores and worker daemons.
// A spec MeasureCollective would reject fails here with ErrSimParams.
func CollectiveJob(cs CollectiveSpec) (campaign.JobSpec, error) {
	if err := cs.check(); err != nil {
		return campaign.JobSpec{}, err
	}
	payload, err := json.Marshal(cs)
	if err != nil {
		return campaign.JobSpec{}, fmt.Errorf("core: encode collective spec: %w", err)
	}
	return campaign.JobSpec{
		Key:     collectiveKey(cs),
		Kind:    CollectiveJobKind,
		Payload: payload,
	}, nil
}

// CollectiveSchedules lists the schedule names ScheduleFor resolves, in
// presentation order.
func CollectiveSchedules() []string {
	return []string{"ring", "bidir-ring", "reduce-scatter", "all-gather",
		"2d", "all-to-all", "hierarchical"}
}

// ScheduleFor resolves a named schedule against a built system. Rings run
// over the system's natural chip order (the snake on a mesh C-group, chip
// ID order elsewhere); the 2D algorithm factors the participants into a
// near-square logical grid; the hierarchical schedule groups chips by
// W-group (or, on single-group systems, by C-group / switch / grid row).
//
// On fault-degraded builds dead chips are excluded and the schedule
// re-routes over the survivors (rings close over them, grids re-factor);
// hierarchical falls back to the flat ring when faults leave the groups
// uneven. When fewer than two participants survive there is nothing to
// run and the error wraps collective.ErrPartitioned.
func ScheduleFor(s *System, name string, volume int64) (collective.Schedule, error) {
	alive := s.Net.ChipAlive
	order := collective.FilterOrder(s.collectiveOrder(), alive)
	if len(order) < 2 {
		return collective.Schedule{}, fmt.Errorf("core: %s on %s: %d of %d chips alive: %w",
			name, s.Label, len(order), s.Chips, collective.ErrPartitioned)
	}
	switch name {
	case "ring":
		return collective.RingAllReduce(order, volume), nil
	case "bidir-ring":
		return collective.BidirRingAllReduce(order, volume), nil
	case "reduce-scatter":
		return collective.ReduceScatter(order, volume), nil
	case "all-gather":
		return collective.AllGather(order, volume), nil
	case "all-to-all":
		return collective.AllToAll(order, volume), nil
	case "2d":
		rows, cols := gridShape(len(order))
		return collective.TwoDAllReduceOrder(order, rows, cols, volume), nil
	case "hierarchical":
		groups := s.collectiveGroups(alive)
		for _, g := range groups[1:] {
			if len(g) != len(groups[0]) {
				// Faults left the groups uneven; the aligned-slot inter-group
				// rings no longer exist, so re-route to the flat ring.
				return collective.RingAllReduce(order, volume), nil
			}
		}
		return collective.HierarchicalAllReduce(groups, volume), nil
	default:
		return collective.Schedule{}, fmt.Errorf("core: unknown collective schedule %q (want %v)",
			name, CollectiveSchedules())
	}
}

// collectiveOrder is the system's natural ring embedding: the snake order
// on a mesh C-group (physically adjacent successors), ascending chip IDs
// elsewhere (IDs already walk C-groups and W-groups consecutively).
func (s *System) collectiveOrder() []int32 {
	if order := kinds[s.Cfg.Kind].order; order != nil {
		return order(s.Cfg)
	}
	order := make([]int32, s.Chips)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// collectiveGroups partitions the alive chips for the hierarchical
// schedule: by W-group on multi-group systems, otherwise by the natural
// sub-block (C-group on the switch-less system, switch on the Dragonfly,
// grid row on a mesh, near-square blocks on a single switch). Empty groups
// are dropped.
func (s *System) collectiveGroups(alive func(int32) bool) [][]int32 {
	size := s.ChipsPerGroup
	if s.Groups <= 1 {
		size = kinds[s.Cfg.Kind].subGroup(s.Cfg, s.Chips)
	}
	if size < 1 {
		size = 1
	}
	var groups [][]int32
	for base := 0; base < s.Chips; base += size {
		var g []int32
		hi := base + size
		if hi > s.Chips {
			hi = s.Chips
		}
		for c := base; c < hi; c++ {
			if alive == nil || alive(int32(c)) {
				g = append(g, int32(c))
			}
		}
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	return groups
}

// gridShape factors n into the most square rows×cols grid (rows <= cols).
// Primes degenerate to 1×n, which reduces the 2D schedule to a flat ring —
// still a valid re-route.
func gridShape(n int) (rows, cols int) {
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			rows = d
		}
	}
	if rows == 0 {
		rows = 1
	}
	return rows, n / rows
}

// MeasureCollective resolves and runs one collective schedule on the
// system, returning its result encoded as a campaign point:
//
//	Rate       = offered volume (flits/chip)
//	Latency    = exact end-to-end makespan (cycles)
//	P50 / P99  = median / maximum step makespan
//	Throughput = delivered flits/cycle/chip over the makespan
//	Aux        = [delivered packets, step 0 cycles, step 1 cycles, ...]
//
// With a Kill the makespan includes the disturbance, the step list is the
// pre-kill steps followed by the survivor schedule's steps, and Aux gains
// four fields after the packet count:
//
//	Aux        = [packets, pre-kill cycles, post-kill cycles,
//	              dropped, retried, step 0 cycles, step 1 cycles, ...]
//
// A spec that fails check, or whose kill comes after the last step of the
// schedule or of the survivors' schedule, is rejected with ErrSimParams,
// and a kill on a system without an
// armed churn timeline is an error. Cycle and packet counts are integers
// carried exactly in float64, so the encoding round-trips bit-identically
// through JSON stores and the wire protocol.
func (s *System) MeasureCollective(cs CollectiveSpec) (metrics.Point, error) {
	if err := cs.check(); err != nil {
		return metrics.Point{}, err
	}
	if cs.Kill != nil && !s.Net.ChurnArmed() {
		return metrics.Point{}, fmt.Errorf("core: chip kill on %s without an armed churn timeline (set Cfg.Churn.Armed)", s.Label)
	}
	s.Net.SetEngine(cs.Engine)
	sch, err := ScheduleFor(s, cs.Schedule, cs.Volume)
	if err != nil {
		return metrics.Point{}, err
	}
	// Step ranges run on the spec's engine, selected above.
	run := func(sch collective.Schedule, lo, hi int) (collective.Result, error) {
		return collective.RunSteps(s.Net, sch, cs.packet(), cs.MaxStepCycles, lo, hi)
	}
	if cs.Kill == nil {
		res, err := run(sch, 0, len(sch.Steps))
		if err != nil {
			return metrics.Point{}, fmt.Errorf("%s/%s: %w", s.Label, cs.Schedule, err)
		}
		return s.collectivePoint(cs, res), nil
	}

	// A death after the last step would find the collective finished and
	// report no cost at all.
	k := cs.Kill.Step
	if k >= len(sch.Steps) {
		return metrics.Point{}, fmt.Errorf("%w: kill before step %d of a %d-step %s schedule (want < %d)",
			ErrSimParams, k, len(sch.Steps), cs.Schedule, len(sch.Steps))
	}
	pre, err := run(sch, 0, k)
	if err != nil {
		return metrics.Point{}, fmt.Errorf("%s/%s pre-kill: %w", s.Label, cs.Schedule, err)
	}
	if err := s.ApplyChipKill(cs.Kill.Chip); err != nil {
		return metrics.Point{}, fmt.Errorf("%s/%s kill chip %d: %w", s.Label, cs.Schedule, cs.Kill.Chip, err)
	}
	// The survivors re-close the collective: resolve the schedule again over
	// the degraded chip tables and run its remaining steps. Steps already
	// executed count as done — the survivor schedule is entered at the same
	// step index. It may be shorter: a kill at or past its end would run no
	// post-kill step and report a makespan below the undisturbed one.
	surv, err := ScheduleFor(s, cs.Schedule, cs.Volume)
	if err != nil {
		return metrics.Point{}, fmt.Errorf("%s/%s survivors: %w", s.Label, cs.Schedule, err)
	}
	if k >= len(surv.Steps) {
		return metrics.Point{}, fmt.Errorf("%w: kill before step %d of a %d-step %s schedule leaves the survivors a %d-step schedule with no step after it (want < %d)",
			ErrSimParams, k, len(sch.Steps), cs.Schedule, len(surv.Steps), len(surv.Steps))
	}
	post, err := run(surv, k, len(surv.Steps))
	if err != nil {
		return metrics.Point{}, fmt.Errorf("%s/%s post-kill: %w", s.Label, cs.Schedule, err)
	}
	st := s.Net.Snapshot()
	return s.collectivePoint(cs, collective.Result{
		Cycles:     pre.Cycles + post.Cycles,
		StepCycles: append(pre.StepCycles, post.StepCycles...),
		Packets:    pre.Packets + post.Packets,
	}, float64(pre.Cycles), float64(post.Cycles), float64(st.DroppedPkts), float64(st.RetriedPkts)), nil
}

// collectivePoint encodes a measured run as MeasureCollective documents,
// with extra inserted into Aux between the packet count and the steps.
func (s *System) collectivePoint(cs CollectiveSpec, res collective.Result, extra ...float64) metrics.Point {
	pt := metrics.Point{Rate: float64(cs.Volume), Latency: float64(res.Cycles)}
	if res.Cycles > 0 {
		pt.Throughput = float64(res.Packets) * float64(cs.packet()) /
			float64(res.Cycles) / float64(s.Chips)
	}
	if n := len(res.StepCycles); n > 0 {
		sorted := append([]int64(nil), res.StepCycles...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		pt.P50 = float64(sorted[n/2])
		pt.P99 = float64(sorted[n-1])
	}
	pt.Aux = make([]float64, 0, 1+len(extra)+len(res.StepCycles))
	pt.Aux = append(pt.Aux, float64(res.Packets))
	pt.Aux = append(pt.Aux, extra...)
	for _, c := range res.StepCycles {
		pt.Aux = append(pt.Aux, float64(c))
	}
	return pt
}

// CollectiveRowFromPoint decodes a collective job's point back into the
// row the figure renders, labelled with the case's system and schedule.
func CollectiveRowFromPoint(system, schedule string, pt metrics.Point) metrics.CollectiveRow {
	row := metrics.CollectiveRow{
		System:     system,
		Schedule:   schedule,
		Cycles:     int64(pt.Latency),
		Efficiency: pt.Throughput,
	}
	if len(pt.Aux) > 0 {
		row.Packets = int64(pt.Aux[0])
		row.StepCycles = make([]int64, 0, len(pt.Aux)-1)
		for _, c := range pt.Aux[1:] {
			row.StepCycles = append(row.StepCycles, int64(c))
		}
	}
	row.Steps = len(row.StepCycles)
	return row
}

// CollectiveCaseSpec is one row of a collective figure: a schedule on a
// system at a volume.
type CollectiveCaseSpec struct {
	Cfg      Config
	Schedule string
	// Label overrides the config-derived system label when non-empty.
	Label         string
	Volume        int64
	PacketSize    int32
	MaxStepCycles int64
	Engine        netsim.EngineKind
}

// Spec lowers the case to its declarative job description.
func (c CollectiveCaseSpec) Spec() CollectiveSpec {
	return CollectiveSpec{Cfg: c.Cfg, Schedule: c.Schedule, Volume: c.Volume,
		PacketSize: c.PacketSize, MaxStepCycles: c.MaxStepCycles, Engine: c.Engine}
}

// CollectiveFigureSpec is one collective-makespan panel: a named list of
// cases.
type CollectiveFigureSpec struct {
	Name, Title string
	Cases       []CollectiveCaseSpec
}

// collectivePlanJob lowers one collective execution to a fan-out job.
func collectivePlanJob(cs CollectiveSpec) (planJob, error) {
	spec, err := CollectiveJob(cs)
	return planJob{spec: spec, sys: cs.Cfg.cacheID()}, err
}

// collectivePart lowers a collective panel to one job per case.
func collectivePart(fs CollectiveFigureSpec) (planPart, error) {
	jobs := make([]planJob, len(fs.Cases))
	for i, c := range fs.Cases {
		job, err := collectivePlanJob(c.Spec())
		if err != nil {
			return planPart{}, named(fs.Name, err)
		}
		jobs[i] = job
	}
	return planPart{[]jobGroup{{fs.Name, jobs}}, func(res *ExperimentResult, pts [][]metrics.Point) {
		res.Collectives = append(res.Collectives, collectiveFigure(fs, pts[0]))
	}}, nil
}

// collectiveFigure assembles a panel from its cases' points.
func collectiveFigure(fs CollectiveFigureSpec, pts []metrics.Point) metrics.CollectiveFigure {
	fig := metrics.CollectiveFigure{Name: fs.Name, Title: fs.Title}
	fig.Rows = make([]metrics.CollectiveRow, len(fs.Cases))
	for i, c := range fs.Cases {
		label := c.Label
		if label == "" {
			label = c.Cfg.Label()
		}
		fig.Rows[i] = CollectiveRowFromPoint(label, c.Schedule, pts[i])
	}
	return fig
}
