// Command sldfsweep runs a latency-vs-injection-rate sweep over one or more
// systems and emits CSV (one latency and throughput column per system).
// The systems are the series of one figure measured by core.RunPlan in one
// fan-out, configuration-major, so -jobs, -cache and -remote span every
// system and the CSV is byte-identical for any -jobs. An empty rate grid
// (-step <= 0 or -from > -to) is an error.
//
// Each -systems name is a kind with optional width, routing and VC-scheme
// suffixes (see core.ParseSystem and the README's grammar table), e.g.
// sw-less-2B-mis-rvc; a suffix the kind does not implement is an error.
//
// Example — reproduce a Fig. 11(a)-style comparison:
//
//	sldfsweep -systems sw-based,sw-less,sw-less-2B -pattern uniform \
//	          -from 0.1 -to 1.0 -step 0.1 > fig11a.csv
//
// Example — the same sweep on a degraded network with 5% of channels and
// 2% of redundant routers failed (deterministic for a given -faultseed):
//
//	sldfsweep -systems sw-less,sw-less-mis -faults 0.05 -faultrouters 0.02 \
//	          -faultseed 7 -from 0.1 -to 0.6 -step 0.1 > degraded.csv
//
// Example — live churn: 2% of channels die (and are repaired 2000 cycles
// later) at seeded cycles mid-run, with stranded packets retried at their
// source (deterministic for a given seed= in the spec):
//
//	sldfsweep -systems sw-less -churn "links=0.02,seed=7,start=1000,end=5000,repair=2000,policy=retry" \
//	          -from 0.1 -to 0.6 -step 0.1 > churn.csv
//
// Example — the same sweep sharded across two sldfd worker daemons (the
// CSV is bitwise identical to the local run, even if a worker dies
// mid-sweep):
//
//	sldfd -listen :8437 &    # on each worker host
//	sldfsweep -remote host1:8437,host2:8437 -systems sw-based,sw-less \
//	          -from 0.1 -to 1.0 -step 0.1 > fig11a.csv
//
// Example — the flow engine on the 18560-chip radix-32 system, with two
// solver workers per point (the CSV is identical for any -flowpar, and
// with -flowcold, which re-traces every route at every point):
//
//	sldfsweep -systems sw-less -size radix32 -engine flow -flowpar 2 \
//	          -from 0.1 -to 0.6 -step 0.05 > flow.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sldf/internal/cliflags"
	"sldf/internal/core"
	"sldf/internal/profiling"
)

func main() {
	cliflags.Exit("sldfsweep", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments, writing the CSV to w
// and progress and diagnostics to errw.
func run(args []string, w, errw io.Writer) error {
	fs := flag.NewFlagSet("sldfsweep", flag.ContinueOnError)
	fs.SetOutput(errw)
	systems := fs.String("systems", "sw-based,sw-less", "comma-separated systems: "+core.SystemGrammar())
	from := fs.Float64("from", 0.1, "first injection rate")
	to := fs.Float64("to", 1.0, "last injection rate")
	step := fs.Float64("step", 0.1, "rate step")
	point := cliflags.AddPoint(fs)
	camp := cliflags.AddCampaign(fs)
	prof := profiling.Flags(fs)
	if ok, err := cliflags.Parse(fs, args); !ok {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(errw, "sldfsweep:", err)
		}
	}()

	pt, err := point.Resolve()
	if err != nil {
		return err
	}
	rates := core.RateGrid(*from, *to, *step)
	if len(rates) == 0 {
		return fmt.Errorf("empty rate grid: -from %g -to %g -step %g (want -step > 0 and -from <= -to)",
			*from, *to, *step)
	}
	names := strings.Split(*systems, ",")
	spec := core.FigureSpec{Name: "sweep", Title: pt.Pattern, Series: make([]core.SeriesSpec, len(names))}
	for i, name := range names {
		cfg, err := pt.Config(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		spec.Series[i] = core.SeriesSpec{Cfg: cfg, Pattern: pt.Pattern, Label: name, Rates: rates, Sim: pt.Sim}
	}
	opts, diskCache, err := camp.Resolve(errw)
	if err != nil {
		return err
	}

	fmt.Fprintf(errw, "sweeping %d systems over %d rates...\n", len(names), len(rates))
	t0 := time.Now()
	res, err := core.RunPlan(core.ExperimentPlan{Figures: []core.FigureSpec{spec}}, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "swept %d systems × %d rates in %v (incl. build)\n",
		len(names), len(rates), time.Since(t0).Round(time.Millisecond))
	fig := res.Figures[0]
	fmt.Fprint(w, fig.CSV())
	for _, s := range fig.Series {
		fmt.Fprintf(errw, "saturation(%s) ≈ %.2f flits/cycle/chip\n",
			s.Label, s.Saturation(3))
	}
	if diskCache != nil {
		fmt.Fprintln(errw, diskCache.StatsLine())
	}
	return nil
}
