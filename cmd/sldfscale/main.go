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
// ceiling regresses below the given value. A step that leaves the process
// above -max-rss-gb fails and is not the ceiling.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sldf/internal/cliflags"
	"sldf/internal/core"
	"sldf/internal/netsim"
	"sldf/internal/scale"
)

func main() {
	cliflags.Exit("sldfscale", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments, writing the report to
// w and progress lines to errw. Split from main so tests can drive flag
// parsing, the ladder and the ceiling gate.
func run(args []string, w, errw io.Writer) error {
	fs := flag.NewFlagSet("sldfscale", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		dim         = fs.String("dim", "chips", "growth dimension: chips | faults | jobs")
		kind        = fs.String("kind", "sw-less", "system kind: sw-less | sw-based | switch | 2d-mesh (alias mesh)")
		workers     = fs.Int("workers", 1, "simulation worker goroutines per system")
		maxSteps    = fs.Int("max-steps", 0, "stop after this many steps (0 = unlimited)")
		maxStepWall = fs.Duration("max-step-wall", 2*time.Minute, "stop after a step exceeding this wall time (0 = unlimited)")
		maxRSSGB    = fs.Float64("max-rss-gb", 16, "fail the step that leaves the resident set above this many GiB (0 = unlimited)")
		minCeiling  = fs.Float64("min-ceiling", 0, "exit nonzero unless the ceiling value reaches this (0 = no gate)")
		jsonOut     = fs.String("json", "", "write the report as JSON to this file (\"-\" = stdout)")
		quiet       = fs.Bool("q", false, "suppress per-step progress lines")
		engine      = cliflags.AddEngine(fs, cliflags.FlowPar)
	)
	if ok, err := cliflags.Parse(fs, args); !ok {
		return err
	}

	k, err := core.ParseKind(*kind)
	if err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d: want 0 (GOMAXPROCS) or a positive worker count", *workers)
	}
	if *maxSteps < 0 {
		return fmt.Errorf("-max-steps %d: want 0 (unlimited) or a positive step count", *maxSteps)
	}
	if *maxStepWall < 0 {
		return fmt.Errorf("-max-step-wall %v: want 0 (unlimited) or a positive duration", *maxStepWall)
	}
	if !(*maxRSSGB >= 0 && *maxRSSGB < 1<<34) {
		return fmt.Errorf("-max-rss-gb %g: want 0 (unlimited) or a positive GiB count below 2^34", *maxRSSGB)
	}
	eng, err := engine.Resolve()
	if err != nil {
		return err
	}
	var d scale.Dimension
	switch *dim {
	case "chips":
		d = scale.ChipsDimension(k, *workers, eng.Kind, eng.FlowWorkers)
	case "faults":
		d = scale.FaultFractionDimension(k, *workers)
	case "jobs":
		d = scale.JobsDimension(k, *workers)
	default:
		return fmt.Errorf("unknown -dim %q (want chips, faults, or jobs)", *dim)
	}
	if *dim != "chips" && eng.Kind != netsim.EngineActiveSet {
		return errors.New("-engine applies to -dim chips only")
	}
	budget := scale.Budget{
		MaxStepWall: *maxStepWall,
		MaxRSS:      uint64(*maxRSSGB * (1 << 30)),
		MaxSteps:    *maxSteps,
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(errw, format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	rep := scale.Run(d, budget, logf)

	if c := rep.Ceiling; c != nil {
		fmt.Fprintf(w, "%s: ceiling %s (value %g) — stopped by %s after %d steps\n",
			rep.Dimension, c.Label, c.Value, rep.Tripped, len(rep.Samples))
		fmt.Fprintf(w, "  build %.0f ms, sim %.0f ms, heap %.1f MB, rss %.1f MB",
			c.BuildMS, c.SimMS, c.HeapMB, c.RSSMB)
		if c.HeapPerChip > 0 {
			fmt.Fprintf(w, ", %.0f heap bytes/chip", c.HeapPerChip)
		}
		fmt.Fprintln(w)
	} else {
		fmt.Fprintf(w, "%s: no step passed — stopped by %s\n", rep.Dimension, rep.Tripped)
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			if _, err := w.Write(data); err != nil {
				return err
			}
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
	}

	if *minCeiling > 0 {
		got := 0.0
		if rep.Ceiling != nil {
			got = rep.Ceiling.Value
		}
		if got < *minCeiling {
			return fmt.Errorf("ceiling gate failed: %g < %g", got, *minCeiling)
		}
		fmt.Fprintf(w, "ceiling gate passed: %g >= %g\n", got, *minCeiling)
	}
	return nil
}
