package core

import (
	"errors"
	"fmt"
	"slices"

	"sldf/internal/campaign"
	"sldf/internal/metrics"
)

// This file lowers every measurement of an experiment plan — latency-series
// points, energy bars, resilience fault draws, collective cases and churn
// cases — into one job list, runs it in one backend call ordered by
// configuration, and reduces the points back into the plan's figures.
// RunPlan is this one fan-out; every CLI and figure runs through it.

// planPart is one figure of a plan lowered to job groups, with the reducer
// that assembles the groups' points into that figure of the result.
type planPart struct {
	groups []jobGroup
	reduce func(res *ExperimentResult, pts [][]metrics.Point)
}

// RunPlan measures every figure of the plan under the run options in one
// fan-out through the Backend seam (see executeGroups): shardable across
// workers, replayable from the store, ordered configuration-major so each
// worker builds a configuration's system about once, and bitwise identical
// however it executes. A non-default opts.Engine first rewrites every
// measurement to that engine. Results come back in plan order, latency
// figures before resilience figures in Figures. Each series, panel or
// resilience curve is one job group, named for error reports by its figure
// (a latency series or resilience curve also by its label).
func RunPlan(plan ExperimentPlan, opts RunOptions) (ExperimentResult, error) {
	applyEngineOverride(&plan, opts.Engine)
	var (
		res    ExperimentResult
		parts  []planPart
		groups []jobGroup
		err    error
	)
	add := func(p planPart, perr error) {
		parts, groups = append(parts, p), append(groups, p.groups...)
		if err == nil {
			err = perr
		}
	}
	for _, fs := range plan.Figures {
		add(latencyPart(fs))
	}
	for _, es := range plan.Energy {
		add(energyPart(es))
	}
	for _, rs := range plan.Resilience {
		add(resiliencePart(rs, opts.Churn))
	}
	for _, cs := range plan.Collectives {
		add(collectivePart(cs))
	}
	for _, cs := range plan.Churn {
		add(churnPart(cs))
	}
	if err != nil {
		return res, err
	}
	pts, err := opts.executeGroups(groups)
	if err != nil {
		return res, err
	}
	for _, p := range parts {
		p.reduce(&res, pts[:len(p.groups)])
		pts = pts[len(p.groups):]
	}
	return res, nil
}

// latencyPart lowers a latency figure to one group per series, a
// load-point job per rate, named "<figure> (<label>)".
func latencyPart(fs FigureSpec) (planPart, error) {
	labels := make([]string, len(fs.Series))
	for i, ss := range fs.Series {
		labels[i] = ss.Label
		if labels[i] == "" {
			labels[i] = ss.Cfg.Label()
		}
	}
	p := planPart{reduce: func(res *ExperimentResult, pts [][]metrics.Point) {
		fig := metrics.Figure{Name: fs.Name, Title: fs.Title, XLabel: fs.XLabel, YLabel: fs.YLabel}
		for i, label := range labels {
			fig.Series = append(fig.Series, metrics.Series{Label: label, Points: pts[i]})
		}
		res.Figures = append(res.Figures, fig)
	}}
	for i, ss := range fs.Series {
		g := jobGroup{name: fmt.Sprintf("%s (%s)", fs.Name, labels[i])}
		g.jobs = make([]planJob, len(ss.Rates))
		for j, rate := range ss.Rates {
			job, err := pointPlanJob(sweepFamily, ss.Cfg, ss.Pattern, rate, ss.Sim)
			if err != nil {
				return p, named(g.name, err)
			}
			g.jobs[j] = job
		}
		p.groups = append(p.groups, g)
	}
	return p, nil
}

// planJob is one declarative job of a fan-out (data, not code) with the
// Config.cacheID of the system it runs on, the key workerSystem holds that
// system under.
type planJob struct {
	spec campaign.JobSpec
	sys  string
}

// jobGroup is the jobs of one series or panel in plan order. name labels
// its jobs' errors.
type jobGroup struct {
	name string
	jobs []planJob
}

// named prefixes err with the name of the figure it belongs to, if any.
func named(name string, err error) error {
	if name == "" {
		return err
	}
	return fmt.Errorf("%s: %w", name, err)
}

// executeGroups runs every group's jobs in one backend call and returns
// each group's points in its own job order. The call is ordered
// configuration-major: configurations in order of first appearance, jobs
// in plan order within one. Every worker therefore meets a configuration
// in one contiguous run, which is what lets it hold a single built system
// (campaign.Worker). A job's failure is wrapped with its group's name, and
// so is an error no job owns (a lost worker fleet, say) when there is only
// one group.
func (opts RunOptions) executeGroups(groups []jobGroup) ([][]metrics.Point, error) {
	type slot struct{ g, j int }
	rank := map[string]int{}
	var byCfg [][]slot
	for g, grp := range groups {
		for j, job := range grp.jobs {
			r, ok := rank[job.sys]
			if !ok {
				r = len(byCfg)
				rank[job.sys] = r
				byCfg = append(byCfg, nil)
			}
			byCfg[r] = append(byCfg[r], slot{g, j})
		}
	}
	order := slices.Concat(byCfg...)
	specs := make([]campaign.JobSpec, len(order))
	for i, sl := range order {
		specs[i] = groups[sl.g].jobs[sl.j].spec
	}
	pts, err := opts.execute(specs)
	if err != nil {
		var je *campaign.JobError
		switch {
		case errors.As(err, &je):
			err = named(groups[order[je.Index].g].name, err)
		case len(groups) == 1:
			err = named(groups[0].name, err)
		}
		return nil, err
	}
	out := make([][]metrics.Point, len(groups))
	for g, grp := range groups {
		out[g] = make([]metrics.Point, len(grp.jobs))
	}
	for i, sl := range order {
		out[sl.g][sl.j] = pts[i]
	}
	return out, nil
}
