// Command slsim runs a single simulation load point and prints its metrics.
//
// -system takes a name of the system grammar (see core.ParseSystem and the
// README's grammar table): a kind with optional width, routing and
// VC-scheme suffixes.
//
// Examples:
//
//	slsim -system sw-less -pattern uniform -rate 0.5
//	slsim -system sw-based-mis -pattern worst-case -rate 0.2
//	slsim -system sw-less-2B-rvc -rate 0.8 -warmup 2000 -measure 4000
//	slsim -system sw-less -rate 0.4 -churn "links=0.02,seed=7,start=2000,end=8000,repair=2000,policy=retry"
//	slsim -system sw-less -size radix32 -engine flow -flowpar 4 -flowstats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sldf/internal/cliflags"
	"sldf/internal/core"
	"sldf/internal/netsim"
	"sldf/internal/profiling"
)

func main() {
	cliflags.Exit("slsim", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments, writing the report to
// w and diagnostics to errw.
func run(args []string, w, errw io.Writer) error {
	fs := flag.NewFlagSet("slsim", flag.ContinueOnError)
	fs.SetOutput(errw)
	system := fs.String("system", "sw-less", "system: "+core.SystemGrammar())
	rate := fs.Float64("rate", 0.5, "offered load in flits/cycle/chip")
	printKey := fs.Bool("printkey", false, "also print the point's content-addressed campaign job key (correlates with -cache stores and sldfd workers)")
	flowStats := fs.Bool("flowstats", false, "flow engine: print cumulative solver statistics (traces, cache hits, phase walls) after the run")
	point := cliflags.AddPoint(fs)
	prof := profiling.Flags(fs)
	if ok, err := cliflags.Parse(fs, args); !ok {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(errw, "slsim:", err)
		}
	}()

	pt, err := point.Resolve()
	if err != nil {
		return err
	}
	cfg, err := pt.Config(*system)
	if err != nil {
		return err
	}
	sys, err := core.Build(cfg)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	defer sys.Close()
	fmt.Fprintf(w, "system   : %s (%d chips, %d routers, %d links, %d W-groups)\n",
		sys.Label, sys.Chips, len(sys.Net.Routers), len(sys.Net.Links), sys.Groups)

	pat, err := sys.PatternFor(pt.Pattern)
	if err != nil {
		return err
	}
	sp := pt.Sim
	if *printKey {
		// The same (config, pattern, rate, window) measured by a sweep —
		// locally or on a worker daemon — stores its point under this key.
		spec, err := core.PointJob(cfg, pt.Pattern, *rate, sp)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "job key  : %s\n", spec.Key)
	}
	res, err := sys.MeasureLoad(pat, *rate, sp)
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	st := res.Stats
	fmt.Fprintf(w, "pattern  : %s @ %.3f flits/cycle/chip\n", pt.Pattern, *rate)
	if res.Point.Undelivered {
		fmt.Fprintf(w, "latency  : unbounded, no packet created in the window was delivered (past saturation)\n")
	} else {
		fmt.Fprintf(w, "latency  : mean %.1f  p50 %.0f  p99 %.0f cycles (network-only mean %.1f)\n",
			res.Point.Latency, res.Point.P50, res.Point.P99, st.MeanNetLatency())
	}
	fmt.Fprintf(w, "accepted : %.4f flits/cycle/chip\n", res.Point.Throughput)
	fmt.Fprintf(w, "packets  : injected %d, delivered %d, in-flight %d (drain tail %d of %d cycles)\n",
		st.InjectedPkts, st.DeliveredPkts, st.InFlightPkts, res.DrainCycles, sp.ExtraDrain)
	if !cfg.Churn.Empty() {
		fmt.Fprintf(w, "churn    : dropped %d, retried %d, refused %d\n",
			st.DroppedPkts, st.RetriedPkts, st.RefusedPkts)
	}
	fmt.Fprintf(w, "hops/pkt : on-chip %.2f  short-reach %.2f  local %.2f  global %.2f\n",
		st.MeanHops(netsim.HopOnChip), st.MeanHops(netsim.HopShortReach),
		st.MeanHops(netsim.HopLongLocal), st.MeanHops(netsim.HopGlobal))
	fmt.Fprintf(w, "energy   : %.1f pJ/bit (intra-C-group %.1f + inter-C-group %.1f)\n",
		res.Energy.Total(), res.Energy.IntraCGroup, res.Energy.InterCGroup)
	if *flowStats {
		solver := sys.Net.FlowSolverStats()
		fmt.Fprintf(w, "flow     : %d solves, %d segments (%d replays), %d traces, %d cache hits (%d flow-table reuses), %d full invalidations\n",
			solver.Solves, solver.Segments, solver.Replays, solver.Traces, solver.CacheHits, solver.TableReuses, solver.FullInvalidations)
		fmt.Fprintf(w, "flow     : %d waterfill rounds, %d transpose builds, %d traced hops\n",
			solver.WaterfillIters, solver.TransposeBuilds, solver.TraceHops)
		nsPerHop := 0.0
		if solver.TraceHops > 0 {
			nsPerHop = float64(solver.TraceWall) / float64(solver.TraceHops)
		}
		fmt.Fprintf(w, "flowwall : trace %v (%.1f ns/hop), transpose %v, waterfill %v, histogram %v\n",
			solver.TraceWall.Round(time.Microsecond), nsPerHop, solver.TransposeWall.Round(time.Microsecond),
			solver.WaterfillWall.Round(time.Microsecond), solver.HistWall.Round(time.Microsecond))
	}
	return nil
}
