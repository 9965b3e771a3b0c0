package core

import (
	"errors"
	"fmt"

	"sldf/internal/campaign"
	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// ResilienceOpts configures a resilience sweep: one traffic point measured
// across increasing failure fractions, averaged over fault seeds.
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
	// Run controls parallelism: Run.Jobs (fraction, seed) points are
	// measured concurrently. Results are identical for any value. The
	// point cache is not consulted: resilience points are keyed by their
	// fault spec and cheap relative to full sweeps. A non-empty Run.Churn
	// timeline is armed on every built network, layering in-run component
	// death and repair over the static fault grid.
	Run RunOptions
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

// ResilienceSweep measures cfg's traffic point across the failure grid.
// For every (fraction, seed) pair the network is rebuilt with the drawn
// fault set and measured once; infeasible draws (typed rejections) and
// watchdog-tripped runs are counted per point instead of failing the
// sweep. Any other error aborts. Results are deterministic for a fixed
// (FaultSpec, seed) grid regardless of Run.Jobs, the worker count, or the
// cycle engine (both engines are bitwise identical).
func ResilienceSweep(cfg Config, opts ResilienceOpts) (ResilienceSeries, error) {
	if len(opts.Fractions) == 0 || len(opts.Seeds) == 0 {
		return ResilienceSeries{}, fmt.Errorf("core: resilience sweep needs fractions and seeds")
	}
	if opts.RouterScale < 0 {
		return ResilienceSeries{}, fmt.Errorf("core: negative RouterScale %g", opts.RouterScale)
	}
	nf, ns := len(opts.Fractions), len(opts.Seeds)
	jobs := make([]campaign.Job[resilienceCell], nf*ns)
	for fi, fraction := range opts.Fractions {
		for si, seed := range opts.Seeds {
			jobs[fi*ns+si].Run = func(*campaign.Worker) (resilienceCell, error) {
				if fraction == 0 && si > 0 {
					// Fraction 0 builds the identical pristine network for
					// every seed; measure it once and fan the result out
					// below.
					return resilienceCell{}, nil
				}
				c, err := measureResilienceCell(cfg, opts, fraction, seed)
				if err != nil {
					err = fmt.Errorf("core: resilience point (fraction %g, seed %d): %w", fraction, seed, err)
				}
				return c, err
			}
		}
	}
	// campaign.Run stops handing out cells after a fatal error and reports
	// the failing cell with the lowest index; typed infeasible/deadlock
	// outcomes are cell values, never errors.
	cells, err := campaign.Run(jobs, campaign.Options[resilienceCell]{Jobs: opts.Run.Jobs})
	if err != nil {
		return ResilienceSeries{}, err
	}
	for fi, fraction := range opts.Fractions {
		if fraction != 0 {
			continue
		}
		for si := 1; si < ns; si++ {
			cells[fi*ns+si] = cells[fi*ns]
		}
	}

	series := ResilienceSeries{Label: cfg.Label()}
	for fi, fraction := range opts.Fractions {
		pt := ResiliencePoint{Fraction: fraction, Seeds: ns}
		for si := range opts.Seeds {
			c := &cells[fi*ns+si]
			switch {
			case c.infeasible:
				pt.Infeasible++
			case c.deadlocked:
				pt.Deadlocked++
			default:
				pt.Latency += c.point.Latency
				pt.P50 += c.point.P50
				pt.P99 += c.point.P99
				pt.Throughput += c.point.Throughput
			}
		}
		if n := float64(pt.Clean()); n > 0 {
			pt.Latency /= n
			pt.P50 /= n
			pt.P99 /= n
			pt.Throughput /= n
		}
		series.Points = append(series.Points, pt)
	}
	return series, nil
}

// resilienceCell is one (fraction, seed) draw's outcome: a measured point,
// or the typed reason it has none.
type resilienceCell struct {
	point      metrics.Point
	infeasible bool
	deadlocked bool
}

// measureResilienceCell builds cfg with the fault draw for (fraction, seed)
// and measures the sweep's traffic point on it. Typed rejections and
// watchdog trips are outcomes; any other error is returned.
func measureResilienceCell(cfg Config, opts ResilienceOpts, fraction float64, seed uint64) (resilienceCell, error) {
	cfg.Faults = topology.FaultSpec{
		Seed:           seed,
		LinkFraction:   fraction,
		RouterFraction: opts.RouterScale * fraction,
	}
	if !opts.Run.Churn.Empty() {
		// Live churn rides on top of the static fault draw: the degraded
		// network additionally loses (and regains) components
		// mid-measurement.
		cfg.Churn = opts.Run.Churn
	}
	sys, err := Build(cfg)
	if err != nil {
		if infeasible(err) {
			return resilienceCell{infeasible: true}, nil
		}
		return resilienceCell{}, err
	}
	defer sys.Close()
	pat, err := sys.PatternFor(opts.Pattern)
	if err != nil {
		return resilienceCell{}, err
	}
	res, err := sys.MeasureLoad(pat, opts.Rate, opts.Sim)
	switch {
	case err == nil:
		return resilienceCell{point: res.Point}, nil
	case errors.Is(err, netsim.ErrDeadlock):
		return resilienceCell{deadlocked: true}, nil
	case infeasible(err):
		// A churn timeline can disconnect survivors that the static draw
		// left connected; that is an infeasible draw mid-measurement, not
		// a sweep failure.
		return resilienceCell{infeasible: true}, nil
	}
	return resilienceCell{}, err
}

// infeasible reports whether err is a typed rejection of a fault draw: the
// surviving network is partitioned, or degraded detours exceed the VC
// provisioning.
func infeasible(err error) bool {
	return errors.Is(err, routing.ErrPartitioned) ||
		errors.Is(err, routing.ErrDegradedVCs)
}
