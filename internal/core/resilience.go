package core

import (
	"errors"
	"fmt"

	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// ResilienceOpts configures a resilience curve: one traffic point measured
// across increasing failure fractions, averaged over fault seeds. Every
// (fraction, seed) draw is one job of the experiment's fan-out, so its
// point is cached and sharded like any other; RunOptions.Churn layers a
// live fault timeline over every draw.
type ResilienceOpts struct {
	// Fractions is the x-axis: the fraction of the topology's samplable
	// channels to fail. A fraction of exactly 0 measures the pristine
	// network under its paper routing (the fault-aware router, whose
	// up*/down* intra-C-group discipline differs from pristine XY, is only
	// installed when faults exist).
	Fractions []float64
	// RouterScale sets the router-failure fraction as a multiple of the
	// link fraction (0 = links only).
	RouterScale float64
	// Seeds are the fault seeds averaged per fraction (at least one).
	Seeds []uint64
	// Pattern and Rate fix the measured traffic point.
	Pattern string
	Rate    float64
	// Sim is the measurement window.
	Sim SimParams
}

// ResiliencePoint aggregates one failure fraction across fault seeds.
type ResiliencePoint struct {
	Fraction float64
	// Seeds is the number of fault draws measured.
	Seeds int
	// Infeasible counts draws the subsystem rejected: the surviving
	// network was partitioned, a chip lost every terminal, or degraded
	// detours exceeded the VC provisioning.
	Infeasible int
	// Deadlocked counts draws whose measurement tripped the progress
	// watchdog.
	Deadlocked int
	// Latency/P50/P99/Throughput are means over the clean draws.
	Latency    float64
	P50        float64
	P99        float64
	Throughput float64
}

// Clean returns the number of fault draws that produced a measurement.
func (p ResiliencePoint) Clean() int { return p.Seeds - p.Infeasible - p.Deadlocked }

// ResilienceSeries is one system's latency/throughput-versus-failure
// curve.
type ResilienceSeries struct {
	Label  string
	Points []ResiliencePoint
}

// Series flattens the curve into a metrics.Series with the failure
// fraction on the rate axis, for CSV rendering alongside ordinary sweeps.
// Fractions where no fault draw produced a measurement are omitted — an
// all-zero point would masquerade as a perfect network — so their CSV
// cells render empty; the Infeasible/Deadlocked counts remain on the
// ResiliencePoint.
func (rs ResilienceSeries) Series() metrics.Series {
	s := metrics.Series{Label: rs.Label}
	for _, p := range rs.Points {
		if p.Clean() == 0 {
			continue
		}
		s.Points = append(s.Points, metrics.Point{
			Rate:       p.Fraction,
			Latency:    p.Latency,
			P50:        p.P50,
			P99:        p.P99,
			Throughput: p.Throughput,
		})
	}
	return s
}

// Outcomes a resilience job records as its point's Aux when the fault draw
// produced no measurement; a clean draw's Aux is empty.
const (
	drawInfeasible = 1
	drawDeadlocked = 2
)

// resiliencePart lowers a resilience figure to one job group per curve:
// for every fraction, one resilience-family point job per fault seed on the
// curve's config rebuilt with that draw (and churn armed when non-empty).
// Fraction 0 builds the identical pristine network for every seed, so it
// is one job whose point the reducer shares across seeds.
func resiliencePart(rs ResilienceFigureSpec, churn topology.FaultTimeline) (planPart, error) {
	o := rs.Opts
	p := planPart{reduce: func(res *ExperimentResult, pts [][]metrics.Point) {
		res.Figures = append(res.Figures, resilienceFigure(rs, pts))
	}}
	for _, ss := range rs.Series {
		g := jobGroup{name: fmt.Sprintf("%s (%s)", rs.Name, ss.Label)}
		switch {
		case len(o.Fractions) == 0 || len(o.Seeds) == 0:
			return p, named(g.name, errors.New("core: resilience sweep needs fractions and seeds"))
		case o.RouterScale < 0:
			return p, named(g.name, fmt.Errorf("core: negative RouterScale %g", o.RouterScale))
		}
		for _, fraction := range o.Fractions {
			for _, seed := range drawSeeds(o, fraction) {
				cfg := ss.Cfg
				cfg.Faults = topology.FaultSpec{Seed: seed, LinkFraction: fraction, RouterFraction: o.RouterScale * fraction}
				if !churn.Empty() {
					cfg.Churn = churn
				}
				job, err := pointPlanJob(resilienceFamily, cfg, o.Pattern, o.Rate, o.Sim)
				if err != nil {
					return p, named(g.name, err)
				}
				g.jobs = append(g.jobs, job)
			}
		}
		p.groups = append(p.groups, g)
	}
	return p, nil
}

// drawSeeds returns the seeds measured at a fraction: all of them, or the
// first alone for the pristine fraction 0.
func drawSeeds(o ResilienceOpts, fraction float64) []uint64 {
	if fraction == 0 {
		return o.Seeds[:1]
	}
	return o.Seeds
}

// resilienceOutcome turns a fault draw's measurement into the job's point:
// typed rejections — a partitioned survivor network at build time, or one a
// churn timeline disconnects mid-measurement — and watchdog trips become
// outcomes; any other error fails the job.
func resilienceOutcome(pt metrics.Point, err error, f topology.FaultSpec) (metrics.Point, error) {
	switch {
	case err == nil:
		return pt, nil
	case errors.Is(err, netsim.ErrDeadlock):
		return metrics.Point{Aux: []float64{drawDeadlocked}}, nil
	case infeasible(err):
		return metrics.Point{Aux: []float64{drawInfeasible}}, nil
	}
	return metrics.Point{}, fmt.Errorf("core: resilience point (fraction %g, seed %d): %w", f.LinkFraction, f.Seed, err)
}

// resilienceFigure reduces each curve's fault draws to its flattened
// series.
func resilienceFigure(rs ResilienceFigureSpec, pts [][]metrics.Point) metrics.Figure {
	fig := metrics.Figure{Name: rs.Name, Title: rs.Title, XLabel: rs.XLabel, YLabel: rs.YLabel}
	for i, ss := range rs.Series {
		label := ss.Label
		if label == "" {
			label = ss.Cfg.Label()
		}
		fig.Series = append(fig.Series, resilienceSeries(rs.Opts, label, pts[i]).Series())
	}
	return fig
}

// resilienceSeries aggregates one curve's draws (in resiliencePart order)
// per fraction: infeasible and deadlocked draws are counted, and the
// latency/throughput means are taken over the clean draws.
func resilienceSeries(o ResilienceOpts, label string, pts []metrics.Point) ResilienceSeries {
	series := ResilienceSeries{Label: label}
	for _, fraction := range o.Fractions {
		draws := len(drawSeeds(o, fraction))
		pt := ResiliencePoint{Fraction: fraction, Seeds: len(o.Seeds)}
		for si := range o.Seeds {
			c := pts[min(si, draws-1)]
			switch {
			case len(c.Aux) == 0:
				pt.Latency += c.Latency
				pt.P50 += c.P50
				pt.P99 += c.P99
				pt.Throughput += c.Throughput
			case c.Aux[0] == drawInfeasible:
				pt.Infeasible++
			default:
				pt.Deadlocked++
			}
		}
		if n := float64(pt.Clean()); n > 0 {
			pt.Latency /= n
			pt.P50 /= n
			pt.P99 /= n
			pt.Throughput /= n
		}
		series.Points = append(series.Points, pt)
		pts = pts[draws:]
	}
	return series
}

// infeasible reports whether err is a typed rejection of a fault draw: the
// surviving network is partitioned, or degraded detours exceed the VC
// provisioning.
func infeasible(err error) bool {
	return errors.Is(err, routing.ErrPartitioned) ||
		errors.Is(err, routing.ErrDegradedVCs)
}
