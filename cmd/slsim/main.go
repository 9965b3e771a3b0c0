// Command slsim runs a single simulation load point and prints its metrics.
//
// Examples:
//
//	slsim -system sw-less -pattern uniform -rate 0.5
//	slsim -system sw-based -pattern worst-case -mode valiant -rate 0.2
//	slsim -system sw-less -scheme reduced -width 2 -rate 0.8 -warmup 2000 -measure 4000
//	slsim -system sw-less -rate 0.4 -churn "links=0.02,seed=7,start=2000,end=8000,repair=2000,policy=retry"
//	slsim -system sw-less -size radix32 -engine flow -flowpar 4 -flowstats
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sldf/internal/cliflags"
	"sldf/internal/core"
	"sldf/internal/netsim"
	"sldf/internal/profiling"
	"sldf/internal/routing"
)

func main() {
	var (
		system   = flag.String("system", "sw-less", "system: sw-less | sw-based | switch | 2d-mesh (alias mesh)")
		pattern  = flag.String("pattern", "uniform", "traffic: uniform | bit-reverse | bit-shuffle | bit-transpose | hotspot | worst-case | ring | ring-bidir")
		rate     = flag.Float64("rate", 0.5, "offered load in flits/cycle/chip")
		mode     = flag.String("mode", "minimal", "routing mode: minimal | valiant | valiant-lower | adaptive")
		scheme   = flag.String("scheme", "baseline", "SLDF VC scheme: baseline | reduced")
		width    = flag.Int("width", 1, "intra-C-group bandwidth multiplier (1, 2, 4)")
		groups   = flag.Int("groups", 0, "override W-group count (1 = single group)")
		warmup   = flag.Int64("warmup", 5000, "warmup cycles")
		measure  = flag.Int64("measure", 10000, "measured cycles")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		printKey = flag.Bool("printkey", false, "also print the point's content-addressed campaign job key (correlates with -cache stores and sldfd workers)")

		flowStats = flag.Bool("flowstats", false, "flow engine: print cumulative solver statistics (traces, cache hits, phase walls) after the run")
		size      = cliflags.AddSize(flag.CommandLine)
		churn     = cliflags.AddChurn(flag.CommandLine)
		engine    = cliflags.AddEngine(flag.CommandLine, cliflags.FlowPar|cliflags.FlowCold)
	)
	prof := profiling.Flags()
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "slsim:", err)
		}
	}()

	cfg := core.Config{Seed: *seed, Workers: *workers, IntraWidth: int32(*width)}
	timeline, err := churn.Resolve()
	if err != nil {
		fatalf("%v", err)
	}
	cfg.Churn = timeline
	eng, err := engine.Resolve()
	if err != nil {
		fatalf("%v", err)
	}
	sldf, df, err := size.Resolve()
	if err != nil {
		fatalf("%v", err)
	}
	switch *mode {
	case "minimal":
		cfg.Mode = routing.Minimal
	case "valiant":
		cfg.Mode = routing.Valiant
	case "valiant-lower":
		cfg.Mode = routing.ValiantLower
	case "adaptive", "ugal":
		cfg.Mode = routing.Adaptive
	default:
		fatalf("unknown mode %q", *mode)
	}
	switch *scheme {
	case "baseline":
		cfg.Scheme = routing.BaselineVC
	case "reduced":
		cfg.Scheme = routing.ReducedVC
	default:
		fatalf("unknown scheme %q", *scheme)
	}
	if cfg.Kind, err = core.ParseKind(*system); err != nil {
		fatalf("%v", err)
	}
	switch cfg.Kind {
	case core.SwitchlessDragonfly:
		cfg.SLDF = sldf
		if *groups > 0 {
			cfg.SLDF.G = *groups
		}
	case core.SwitchDragonfly:
		cfg.DF = df
		if *groups > 0 {
			cfg.DF.G = *groups
		}
	case core.SingleSwitch:
		cfg.Terminals = 4
	case core.MeshCGroup:
		cfg.ChipletDim, cfg.NoCDim = 2, 2
	}

	sys, err := core.Build(cfg)
	if err != nil {
		fatalf("build: %v", err)
	}
	defer sys.Close()
	fmt.Printf("system   : %s (%d chips, %d routers, %d links, %d W-groups)\n",
		sys.Label, sys.Chips, len(sys.Net.Routers), len(sys.Net.Links), sys.Groups)

	pat, err := sys.PatternFor(*pattern)
	if err != nil {
		fatalf("%v", err)
	}
	sp := core.SimParams{Warmup: *warmup, Measure: *measure,
		ExtraDrain: *measure / 2, PacketSize: 4}
	eng.Apply(&sp)
	if *printKey {
		// The same (config, pattern, rate, window) measured by a sweep —
		// locally or on a worker daemon — stores its point under this key.
		spec, err := core.PointJob(cfg, *pattern, *rate, sp)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("job key  : %s\n", spec.Key)
	}
	res, err := sys.MeasureLoad(pat, *rate, sp)
	if err != nil {
		fatalf("simulate: %v", err)
	}
	st := res.Stats
	fmt.Printf("pattern  : %s @ %.3f flits/cycle/chip\n", *pattern, *rate)
	fmt.Printf("latency  : mean %.1f  p50 %.0f  p99 %.0f cycles (network-only mean %.1f)\n",
		res.Point.Latency, res.Point.P50, res.Point.P99, st.MeanNetLatency())
	fmt.Printf("accepted : %.4f flits/cycle/chip\n", res.Point.Throughput)
	fmt.Printf("packets  : injected %d, delivered %d, in-flight %d (drain tail %d of %d cycles)\n",
		st.InjectedPkts, st.DeliveredPkts, st.InFlightPkts, res.DrainCycles, sp.ExtraDrain)
	if !timeline.Empty() {
		fmt.Printf("churn    : dropped %d, retried %d, refused %d\n",
			st.DroppedPkts, st.RetriedPkts, st.RefusedPkts)
	}
	fmt.Printf("hops/pkt : on-chip %.2f  short-reach %.2f  local %.2f  global %.2f\n",
		st.MeanHops(netsim.HopOnChip), st.MeanHops(netsim.HopShortReach),
		st.MeanHops(netsim.HopLongLocal), st.MeanHops(netsim.HopGlobal))
	fmt.Printf("energy   : %.1f pJ/bit (intra-C-group %.1f + inter-C-group %.1f)\n",
		res.Energy.Total(), res.Energy.IntraCGroup, res.Energy.InterCGroup)
	if *flowStats {
		fs := sys.Net.FlowSolverStats()
		fmt.Printf("flow     : %d solves, %d segments, %d traces, %d cache hits, %d full invalidations\n",
			fs.Solves, fs.Segments, fs.Traces, fs.CacheHits, fs.FullInvalidations)
		fmt.Printf("flow     : %d waterfill rounds, %d transpose builds\n",
			fs.WaterfillIters, fs.TransposeBuilds)
		fmt.Printf("flowwall : trace %v, transpose %v, waterfill %v, histogram %v\n",
			fs.TraceWall.Round(time.Microsecond), fs.TransposeWall.Round(time.Microsecond),
			fs.WaterfillWall.Round(time.Microsecond), fs.HistWall.Round(time.Microsecond))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "slsim: "+format+"\n", args...)
	os.Exit(1)
}
