// Package metrics defines the result containers for injection-rate sweeps
// and their rendering as CSV or aligned text — the data behind every
// latency-vs-load figure in the paper.
//
// The package is declared deterministic: results feed figures, caches and
// the bitwise serial==parallel==cached equality contract, so sldfcheck
// flags map iteration, global RNG and wall-clock reads in non-test code.
//
//sldf:deterministic
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Point is one measured load point of a sweep. It is also the value every
// campaign store and backend carries, so experiment families whose natural
// result is not a latency point (collective makespans) encode into it.
type Point struct {
	Rate       float64 // offered load, flits/cycle/chip
	Latency    float64 // mean packet latency, cycles
	P50        float64
	P99        float64
	Throughput float64 // accepted load, flits/cycle/chip

	// Churn accounting, mirrored from netsim.Stats so in-run fault
	// timelines surface their losses in sweep output instead of silently
	// reporting zero. All three stay zero — and omitted from JSON, keeping
	// churn-free cache entries and wire messages byte-identical to older
	// revisions — unless a timeline stranded or refused packets.
	Dropped int64 `json:",omitempty"` // stranded in flight and discarded
	Retried int64 `json:",omitempty"` // stranded and re-injected at the source
	Refused int64 `json:",omitempty"` // refused at injection (destination dead)

	// Undelivered marks a point whose window carried traffic but delivered
	// none of the packets created in it: offered load so far past the knee
	// that the window's packets outlast the drain tail. Its latency is
	// unbounded, not measured, so Latency, P50 and P99 read 0 and mean
	// nothing. Omitted from JSON when false, keeping every other point's
	// cache entry byte-identical.
	Undelivered bool `json:",omitempty"`

	// Aux carries experiment-family-specific extras through the store and
	// the coordinator/worker protocol (collective jobs record delivered
	// packets and per-step makespans here; int64 cycle counts are exact in
	// float64). Nil for ordinary sweep points — and omitted from JSON, so
	// cache entries and wire messages for sweeps are byte-identical to
	// pre-Aux revisions.
	Aux []float64 `json:",omitempty"`
}

// Series is one curve: a labelled sequence of load points.
type Series struct {
	Label  string
	Points []Point
}

// Saturation estimates the saturation injection rate: the highest offered
// rate whose mean latency stays below latencyFactor × the zero-load
// (first-point) latency. A pure latency-knee criterion is used because
// accepted throughput is normalized per chip while permutation patterns may
// leave self-mapped chips silent. An Undelivered point is past the knee.
// It returns 0 for an empty series.
func (s Series) Saturation(latencyFactor float64) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	zero := s.Points[0].Latency
	if zero <= 0 {
		zero = 1
	}
	sat := 0.0
	for _, p := range s.Points {
		if !p.Undelivered && p.Latency <= latencyFactor*zero && p.Rate > sat {
			sat = p.Rate
		}
	}
	return sat
}

// MaxThroughput returns the highest accepted throughput in the series.
func (s Series) MaxThroughput() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.Throughput > m {
			m = p.Throughput
		}
	}
	return m
}

// Figure is a named set of curves, matching one sub-figure of the paper.
type Figure struct {
	Name   string // e.g. "fig10a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// EnergyBar is one bar of an energy figure (paper Fig. 15): average
// transmission energy split into intra- and inter-C-group components.
type EnergyBar struct {
	Label string
	Intra float64 // pJ/bit inside C-groups (NoC + short-reach)
	Inter float64 // pJ/bit on long-reach cables
}

// Total returns the bar height.
func (b EnergyBar) Total() float64 { return b.Intra + b.Inter }

// EnergyFigure is one energy-bar panel.
type EnergyFigure struct {
	Name  string
	Title string
	Bars  []EnergyBar
}

// CSV renders the panel's bars with intra/inter/total pJ-per-bit columns.
func (f EnergyFigure) CSV() string {
	var b strings.Builder
	b.WriteString("system,intra_pj_per_bit,inter_pj_per_bit,total_pj_per_bit\n")
	for _, bar := range f.Bars {
		fmt.Fprintf(&b, "%s,%.3f,%.3f,%.3f\n", bar.Label, bar.Intra, bar.Inter, bar.Total())
	}
	return b.String()
}

// CollectiveRow is one measured collective execution: a schedule run to
// completion on a system, with its exact per-step makespans.
type CollectiveRow struct {
	System     string  // system label
	Schedule   string  // schedule name as requested
	Steps      int     // dependent steps executed
	Cycles     int64   // end-to-end makespan
	Packets    int64   // packets delivered
	Efficiency float64 // delivered flits/cycle/chip over the makespan
	StepCycles []int64 // exact per-step makespans
}

// CollectiveFigure is one collective-makespan panel (paper Fig. 4's
// argument measured end to end).
type CollectiveFigure struct {
	Name  string
	Title string
	Rows  []CollectiveRow
}

// CSV renders the panel, one row per (system, schedule) execution. The
// step_cycles column joins the exact per-step makespans with ';' so the
// full barrier trace survives the flat format.
func (f CollectiveFigure) CSV() string {
	var b strings.Builder
	b.WriteString("system,schedule,steps,cycles,packets,flits_per_cycle_per_chip,step_cycles\n")
	for _, r := range f.Rows {
		steps := make([]string, len(r.StepCycles))
		for i, c := range r.StepCycles {
			steps[i] = fmt.Sprintf("%d", c)
		}
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%.4f,%s\n",
			r.System, r.Schedule, r.Steps, r.Cycles, r.Packets, r.Efficiency,
			strings.Join(steps, ";"))
	}
	return b.String()
}

// ChurnRow is one measured churn-resilience case: a collective run to
// completion twice on a system — undisturbed, and with a chip killed
// mid-flight at a fixed step — so the death's makespan cost is exact.
type ChurnRow struct {
	System   string // system label
	Schedule string // schedule name as requested
	KillChip int32  // chip killed mid-collective (-1: no case measured)
	KillStep int    // dependent step before which the chip dies
	Steps    int    // dependent steps executed in the disturbed run

	BaselineCycles int64 // undisturbed end-to-end makespan
	Cycles         int64 // makespan with the mid-flight death
	CostCycles     int64 // Cycles - BaselineCycles: what the death cost

	PreCycles  int64   // cycles spent before the death
	PostCycles int64   // cycles to finish on the survivor schedule
	Packets    int64   // packets delivered in the disturbed run
	Dropped    int64   // packets the death stranded and dropped
	Retried    int64   // packets the death stranded and re-injected
	StepCycles []int64 // exact per-step makespans of the disturbed run
}

// ChurnFigure is one churn-resilience panel: the cost of in-flight
// component death across systems and schedules.
type ChurnFigure struct {
	Name  string
	Title string
	Rows  []ChurnRow
}

// CSV renders the panel, one row per (system, schedule, kill) case; the
// step_cycles column joins the disturbed run's per-step makespans with ';'.
func (f ChurnFigure) CSV() string {
	var b strings.Builder
	b.WriteString("system,schedule,kill_chip,kill_step,steps,baseline_cycles,cycles,cost_cycles,pre_cycles,post_cycles,packets,dropped,retried,step_cycles\n")
	for _, r := range f.Rows {
		steps := make([]string, len(r.StepCycles))
		for i, c := range r.StepCycles {
			steps[i] = fmt.Sprintf("%d", c)
		}
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s\n",
			r.System, r.Schedule, r.KillChip, r.KillStep, r.Steps,
			r.BaselineCycles, r.Cycles, r.CostCycles, r.PreCycles, r.PostCycles,
			r.Packets, r.Dropped, r.Retried, strings.Join(steps, ";"))
	}
	return b.String()
}

// hasChurn reports whether any point of the figure recorded churn losses;
// the CSV grows its churn columns only then, so churn-free figures stay
// byte-identical to older revisions.
func (f Figure) hasChurn() bool {
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Dropped != 0 || p.Retried != 0 || p.Refused != 0 {
				return true
			}
		}
	}
	return false
}

// CSV renders the figure as rate-indexed CSV with one latency and one
// throughput column per series; an Undelivered point's latency cell reads
// inf. Figures measured under churn additionally carry per-series
// dropped/retried/refused packet columns.
func (f Figure) CSV() string {
	churn := f.hasChurn()
	var b strings.Builder
	b.WriteString("rate")
	for _, s := range f.Series {
		fmt.Fprintf(&b, ",%s_latency,%s_throughput", s.Label, s.Label)
		if churn {
			fmt.Fprintf(&b, ",%s_dropped,%s_retried,%s_refused", s.Label, s.Label, s.Label)
		}
	}
	b.WriteByte('\n')
	// Collect the union of rates.
	rateSet := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			rateSet[p.Rate] = true
		}
	}
	rates := make([]float64, 0, len(rateSet))
	for r := range rateSet { //sldf:nondeterministic-ok rate union is sorted immediately after collection

		rates = append(rates, r)
	}
	sort.Float64s(rates)
	for _, r := range rates {
		fmt.Fprintf(&b, "%.4f", r)
		for _, s := range f.Series {
			found := false
			for _, p := range s.Points {
				if p.Rate == r {
					if p.Undelivered {
						fmt.Fprintf(&b, ",inf,%.4f", p.Throughput)
					} else {
						fmt.Fprintf(&b, ",%.3f,%.4f", p.Latency, p.Throughput)
					}
					if churn {
						fmt.Fprintf(&b, ",%d,%d,%d", p.Dropped, p.Retried, p.Refused)
					}
					found = true
					break
				}
			}
			if !found {
				b.WriteString(",,")
				if churn {
					b.WriteString(",,,")
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
