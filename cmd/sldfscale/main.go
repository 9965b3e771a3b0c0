// sldfscale finds the simulator's soft scaling ceilings.
//
// It grows one dimension — system size in chips, injected link-fault
// fraction, or concurrent campaign jobs — until a step fails validation or
// a resource budget trips, then reports the per-step wall/heap/RSS
// trajectory and the resulting ceiling:
//
//	sldfscale -dim chips -kind sw-less -max-rss-gb 8
//	sldfscale -dim faults -kind sw-less
//	sldfscale -dim jobs -kind 2d-mesh -min-ceiling 4
//	sldfscale -dim chips -kind sw-less -engine flow -flowpar 4
//
// -engine and -flowpar set the validation run of -dim chips; under the flow
// engine the ladder climbs far past the cycle engines' ceiling.
//
// With -json the full report is written as JSON (to a file, or stdout with
// "-"); -min-ceiling turns the run into a CI gate that fails when the
// ceiling regresses below the given value.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sldf/internal/cliflags"
	"sldf/internal/core"
	"sldf/internal/netsim"
	"sldf/internal/scale"
)

func main() {
	var (
		dim         = flag.String("dim", "chips", "growth dimension: chips | faults | jobs")
		kind        = flag.String("kind", "sw-less", "system kind: sw-less | sw-based | switch | 2d-mesh (alias mesh)")
		workers     = flag.Int("workers", 1, "simulation worker goroutines per system")
		maxSteps    = flag.Int("max-steps", 0, "stop after this many steps (0 = unlimited)")
		maxStepWall = flag.Duration("max-step-wall", 2*time.Minute, "stop after a step exceeding this wall time (0 = unlimited)")
		maxRSSGB    = flag.Float64("max-rss-gb", 16, "stop once resident set exceeds this many GiB (0 = unlimited)")
		minCeiling  = flag.Float64("min-ceiling", 0, "exit nonzero unless the ceiling value reaches this (0 = no gate)")
		jsonOut     = flag.String("json", "", "write the report as JSON to this file (\"-\" = stdout)")
		quiet       = flag.Bool("q", false, "suppress per-step progress lines")
		engine      = cliflags.AddEngine(flag.CommandLine, cliflags.FlowPar)
	)
	flag.Parse()

	k, err := core.ParseKind(*kind)
	if err != nil {
		fatal(err)
	}
	eng, err := engine.Resolve()
	if err != nil {
		fatal(err)
	}
	var d scale.Dimension
	switch *dim {
	case "chips":
		d = scale.ChipsDimension(k, *workers, eng.Kind, eng.FlowWorkers)
	case "faults":
		if eng.Kind != netsim.EngineActiveSet {
			fatal(fmt.Errorf("-engine applies to -dim chips only"))
		}
		d = scale.FaultFractionDimension(k, *workers)
	case "jobs":
		if eng.Kind != netsim.EngineActiveSet {
			fatal(fmt.Errorf("-engine applies to -dim chips only"))
		}
		d = scale.JobsDimension(k, *workers)
	default:
		fatal(fmt.Errorf("unknown -dim %q (want chips, faults, or jobs)", *dim))
	}
	budget := scale.Budget{
		MaxStepWall: *maxStepWall,
		MaxRSS:      uint64(*maxRSSGB * (1 << 30)),
		MaxSteps:    *maxSteps,
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	rep := scale.Run(d, budget, logf)

	if rep.Ceiling != nil {
		fmt.Printf("%s: ceiling %s (value %g) — stopped by %s after %d steps\n",
			rep.Dimension, rep.Ceiling.Label, rep.Ceiling.Value, rep.Tripped, len(rep.Samples))
		fmt.Printf("  build %.0f ms, sim %.0f ms, heap %.1f MB, rss %.1f MB",
			rep.Ceiling.BuildMS, rep.Ceiling.SimMS, rep.Ceiling.HeapMB, rep.Ceiling.RSSMB)
		if rep.Ceiling.HeapPerChip > 0 {
			fmt.Printf(", %.0f heap bytes/chip", rep.Ceiling.HeapPerChip)
		}
		fmt.Println()
	} else {
		fmt.Printf("%s: no step passed — stopped by %s\n", rep.Dimension, rep.Tripped)
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal(err)
		}
	}

	if *minCeiling > 0 {
		if rep.Ceiling == nil || rep.Ceiling.Value < *minCeiling {
			got := 0.0
			if rep.Ceiling != nil {
				got = rep.Ceiling.Value
			}
			fmt.Fprintf(os.Stderr, "sldfscale: ceiling gate failed: %g < %g\n", got, *minCeiling)
			os.Exit(2)
		}
		fmt.Printf("ceiling gate passed: %g >= %g\n", rep.Ceiling.Value, *minCeiling)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sldfscale:", err)
	os.Exit(1)
}
