// Command sldffigures regenerates the data behind every evaluation figure
// of the paper (Figs. 10–15). Experiments come from the core registry —
// each figure is a declarative spec (configs × patterns × rate grid)
// executed by the generic runner — so this command enumerates the registry
// instead of dispatching to hand-written runners. Each figure's series are
// written as CSV files into -out and summarized on stdout (saturation
// points, peak throughputs, energy bars, collective and churn makespans).
//
//	sldffigures -quick              # CI-scale everything (minutes)
//	sldffigures -fig 11             # only Fig. 11 at paper scale
//	sldffigures -full -fig 12       # the 18560-chip scalability run
//	sldffigures -jobs 8 -cache .pts # 8 concurrent points, resumable
//	sldffigures -remote host1:8437,host2:8437  # shard across sldfd workers
//
// Every measurement of an experiment — latency points, Fig. 15 energy
// bars, resilience fault draws, collective and churn cases — is one job of
// a single core.RunPlan fan-out, so -jobs, -cache and -remote apply to
// every figure.
// -engine overrides the engine of every measurement, and -churn arms its
// timeline on the resilience-figure networks only; the other figures carry
// their own configurations.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sldf/internal/cliflags"
	"sldf/internal/core"
)

func main() {
	cliflags.Exit("sldffigures", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments, writing summaries to
// w and diagnostics to errw. Split from main so tests can drive flag
// parsing and formatting.
func run(args []string, w, errw io.Writer) error {
	fs := flag.NewFlagSet("sldffigures", flag.ContinueOnError)
	fs.SetOutput(errw)
	quick := fs.Bool("quick", false, "CI-scale runs (small windows, thinner grids, radix-24 stand-in for Fig. 12)")
	full := fs.Bool("full", false, "force paper-scale runs (Table IV windows)")
	fig := fs.String("fig", "all", "which experiment: "+strings.Join(core.ExperimentNames(), " | ")+" | all")
	out := fs.String("out", "figures", "output directory for CSV files")
	camp := cliflags.AddCampaign(fs)
	churn := cliflags.AddChurn(fs)
	engine := cliflags.AddEngine(fs, 0)
	if ok, err := cliflags.Parse(fs, args); !ok {
		return err
	}
	if _, ok := core.LookupExperiment(*fig); !ok && *fig != "all" {
		return fmt.Errorf("unknown -fig %q (want %s, or all)",
			*fig, strings.Join(core.ExperimentNames(), ", "))
	}

	if *quick && *full {
		return errors.New("-quick and -full ask for different scales: pass one")
	}
	scale := core.ScaleQuick
	if *full || (!*quick && *fig != "all") {
		scale = core.ScalePaper
	}
	timeline, err := churn.Resolve()
	if err != nil {
		return err
	}
	eng, err := engine.Resolve()
	if err != nil {
		return err
	}
	opts, diskCache, err := camp.Resolve(errw)
	if err != nil {
		return err
	}
	opts.Churn = timeline
	opts.Engine = eng.Kind
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	for _, spec := range core.Experiments() {
		if *fig != "all" && *fig != spec.Name {
			continue
		}
		start := time.Now()
		res, err := core.RunPlan(spec.Plan(scale), opts)
		if err != nil {
			return fmt.Errorf("fig %s: %w", spec.Name, err)
		}
		for _, f := range res.Figures {
			path, err := writeCSV(*out, f.Name, f.CSV())
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "== %s — %s (%s)\n", f.Name, f.Title, path)
			for _, s := range f.Series {
				fmt.Fprintf(w, "   %-16s saturation ≈ %.2f  peak throughput %.2f flits/cycle/chip\n",
					s.Label, s.Saturation(3), s.MaxThroughput())
			}
			for _, d := range res.Resilience {
				if d.Name == f.Name {
					printDraws(w, d)
				}
			}
		}
		for _, f := range res.Energy {
			fmt.Fprintf(w, "== %s — %s\n", f.Name, f.Title)
			for _, bar := range f.Bars {
				fmt.Fprintf(w, "   %-16s %6.1f pJ/bit (intra %5.1f + inter %5.1f)\n",
					bar.Label, bar.Total(), bar.Intra, bar.Inter)
			}
			if _, err := writeCSV(*out, f.Name, f.CSV()); err != nil {
				return err
			}
		}
		for _, f := range res.Collectives {
			path, err := writeCSV(*out, f.Name, f.CSV())
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "== %s — %s (%s)\n", f.Name, f.Title, path)
			for _, r := range f.Rows {
				fmt.Fprintf(w, "   %-14s %-16s %4d steps %10d cycles  %.2f flits/cyc/chip\n",
					r.System, r.Schedule, r.Steps, r.Cycles, r.Efficiency)
			}
		}
		for _, f := range res.Churn {
			path, err := writeCSV(*out, f.Name, f.CSV())
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "== %s — %s (%s)\n", f.Name, f.Title, path)
			fmt.Fprintf(w, "   %-14s %-16s %8s %12s %12s %12s %8s %8s\n",
				"system", "schedule", "steps", "baseline", "cycles", "cost", "dropped", "retried")
			for _, r := range f.Rows {
				fmt.Fprintf(w, "   %-14s %-16s %8d %12d %12d %12d %8d %8d\n",
					r.System, r.Schedule, r.Steps, r.BaselineCycles, r.Cycles,
					r.CostCycles, r.Dropped, r.Retried)
			}
		}
		fmt.Fprintf(w, "-- fig %s done in %s\n", spec.Name, time.Since(start).Round(time.Second))
		// Latency experiments historically end with a blank separator line;
		// the energy panel (Fig. 15) closes the report without one.
		if len(res.Figures) > 0 {
			fmt.Fprintln(w)
		}
	}

	if diskCache != nil {
		fmt.Fprintln(errw, diskCache.StatsLine())
	}
	return nil
}

// printDraws prints, per curve and failure fraction, how many fault draws
// were clean, infeasible and deadlocked out of the seeds drawn: the curve
// averages the clean draws only, and drops a fraction with none.
func printDraws(w io.Writer, d core.ResilienceDraws) {
	fmt.Fprintf(w, "   fault draws per fraction (clean/infeasible/deadlocked of seeds):\n")
	for _, s := range d.Series {
		fmt.Fprintf(w, "   %-16s", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(w, "  %g: %d/%d/%d of %d", p.Fraction, p.Clean(), p.Infeasible, p.Deadlocked, p.Seeds)
		}
		fmt.Fprintln(w)
	}
}

// writeCSV writes one panel's CSV into dir and returns the file's path.
func writeCSV(dir, name, csv string) (string, error) {
	path := filepath.Join(dir, name+".csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}
