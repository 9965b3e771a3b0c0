package core

import (
	"errors"
	"fmt"
	"slices"

	"sldf/internal/campaign"
	"sldf/internal/metrics"
)

// This file lowers an experiment plan's campaign jobs — latency-series
// points, collective cases and churn cases — into one job list and runs it
// in one backend call, ordered by configuration, then scatters the points
// back into the plan's figures. SweepOpts, RunCollectiveFigure and
// RunChurnFigure are the same fan-out over a one-figure plan.

// runPlanJobs runs the plan's latency figures, collective panels and churn
// panels as one fan-out (see executeGroups) and assembles their results in
// plan order. Each series and each panel is one job group, named by its
// figure for error reports.
func runPlanJobs(plan ExperimentPlan, opts RunOptions) (ExperimentResult, error) {
	var (
		res    ExperimentResult
		groups []jobGroup
	)
	for _, fs := range plan.Figures {
		for _, ss := range fs.Series {
			jobs, err := seriesJobs(fs.Name, ss)
			if err != nil {
				return res, err
			}
			groups = append(groups, jobGroup{fs.Name, jobs})
		}
	}
	for _, cs := range plan.Collectives {
		jobs, err := collectiveJobs(cs)
		if err != nil {
			return res, err
		}
		groups = append(groups, jobGroup{cs.Name, jobs})
	}
	for _, cs := range plan.Churn {
		jobs, err := churnJobs(cs)
		if err != nil {
			return res, err
		}
		groups = append(groups, jobGroup{cs.Name, jobs})
	}
	pts, err := opts.executeGroups(groups)
	if err != nil {
		return res, err
	}
	for _, fs := range plan.Figures {
		fig := metrics.Figure{Name: fs.Name, Title: fs.Title, XLabel: fs.XLabel, YLabel: fs.YLabel}
		for _, ss := range fs.Series {
			label := ss.Label
			if label == "" {
				label = ss.Cfg.Label()
			}
			fig.Series = append(fig.Series, metrics.Series{Label: label, Points: pts[0]})
			pts = pts[1:]
		}
		res.Figures = append(res.Figures, fig)
	}
	for _, cs := range plan.Collectives {
		res.Collectives = append(res.Collectives, collectiveFigure(cs, pts[0]))
		pts = pts[1:]
	}
	for _, cs := range plan.Churn {
		res.Churn = append(res.Churn, churnFigure(cs, pts[0]))
		pts = pts[1:]
	}
	return res, nil
}

// planJob is one declarative job of a fan-out (data, not code) with the
// Config.cacheID of the system it runs on, the key workerSystem holds that
// system under.
type planJob struct {
	spec campaign.JobSpec
	sys  string
}

// jobGroup is the jobs of one series or panel in plan order. name labels
// its jobs' execution errors ("" for a bare sweep).
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

// seriesJobs lowers one series of figure fig to a load-point job per rate.
func seriesJobs(fig string, ss SeriesSpec) ([]planJob, error) {
	sys := ss.Cfg.cacheID()
	jobs := make([]planJob, len(ss.Rates))
	for i, rate := range ss.Rates {
		spec, err := PointJob(ss.Cfg, ss.Pattern, rate, ss.Sim)
		if err != nil {
			return nil, named(fig, err)
		}
		jobs[i] = planJob{spec: spec, sys: sys}
	}
	return jobs, nil
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
