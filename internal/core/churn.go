package core

import (
	"sldf/internal/metrics"
	"sldf/internal/netsim"
)

// This file renders mid-collective chip deaths as a figure family: each
// churn case lowers to two collective jobs, the undisturbed baseline and
// the same collective with a ChipKill, so the row carries the exact cost of
// the death and both jobs get the collective family's content-addressed
// caching and remote sharding.

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
	// KillChip is the chip that dies; negative measures the baseline twice.
	KillChip int32
	// KillStep is the dependent step before which KillChip dies.
	KillStep int
}

// Spec lowers the case to its disturbed-run job description: a
// CollectiveSpec with the kill set (nil when KillChip is negative) and the
// churn timeline armed, because the kill is injected through it. An armed
// zero-event timeline simulates bitwise identically to the static build.
// The disturbed point's Aux is [packets, pre-kill cycles, post-kill cycles,
// dropped, retried, step cycles...]; baseline() is the same spec without the
// kill, whose Aux is [packets, step cycles...] (see MeasureCollective).
func (c ChurnCaseSpec) Spec() CollectiveSpec {
	cs := c.baseline()
	if c.KillChip >= 0 {
		cs.Kill = &ChipKill{Chip: c.KillChip, Step: c.KillStep}
	}
	return cs
}

func (c ChurnCaseSpec) baseline() CollectiveSpec {
	cfg := c.Cfg
	cfg.Churn.Armed = true
	return CollectiveSpec{Cfg: cfg, Schedule: c.Schedule, Volume: c.Volume,
		PacketSize: c.PacketSize, MaxStepCycles: c.MaxStepCycles, Engine: c.Engine}
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
	aux := kill.Aux
	switch {
	case c.KillChip < 0 && len(aux) > 0:
		// No kill: the whole makespan ran undisturbed and nothing dropped.
		row.Packets, row.PreCycles = int64(aux[0]), row.Cycles
		aux = aux[1:]
	case len(aux) >= 5:
		row.Packets = int64(aux[0])
		row.PreCycles = int64(aux[1])
		row.PostCycles = int64(aux[2])
		row.Dropped = int64(aux[3])
		row.Retried = int64(aux[4])
		aux = aux[5:]
	default:
		aux = nil
	}
	if aux != nil {
		row.StepCycles = make([]int64, 0, len(aux))
		for _, s := range aux {
			row.StepCycles = append(row.StepCycles, int64(s))
		}
	}
	row.Steps = len(row.StepCycles)
	return row
}

// churnPart lowers a churn panel to two jobs per case: the baseline, then
// the disturbed run.
func churnPart(fs ChurnFigureSpec) (planPart, error) {
	jobs := make([]planJob, 0, 2*len(fs.Cases))
	for _, c := range fs.Cases {
		base, err := collectivePlanJob(c.baseline())
		if err != nil {
			return planPart{}, named(fs.Name, err)
		}
		kill, err := collectivePlanJob(c.Spec())
		if err != nil {
			return planPart{}, named(fs.Name, err)
		}
		jobs = append(jobs, base, kill)
	}
	return planPart{[]jobGroup{{fs.Name, jobs}}, func(res *ExperimentResult, pts [][]metrics.Point) {
		res.Churn = append(res.Churn, churnFigure(fs, pts[0]))
	}}, nil
}

// churnFigure assembles a panel from its cases' baseline and disturbed
// points.
func churnFigure(fs ChurnFigureSpec, pts []metrics.Point) metrics.ChurnFigure {
	fig := metrics.ChurnFigure{Name: fs.Name, Title: fs.Title}
	fig.Rows = make([]metrics.ChurnRow, len(fs.Cases))
	for i, c := range fs.Cases {
		label := c.Label
		if label == "" {
			label = c.Cfg.Label()
		}
		fig.Rows[i] = ChurnRowFromPoints(c, label, pts[2*i], pts[2*i+1])
	}
	return fig
}
