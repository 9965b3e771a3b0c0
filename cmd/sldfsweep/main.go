// Command sldfsweep runs a latency-vs-injection-rate sweep over one or more
// systems and emits CSV (one latency and throughput column per system).
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
	"os"
	"strings"
	"time"

	"sldf/internal/cliflags"
	"sldf/internal/core"
	"sldf/internal/metrics"
	"sldf/internal/profiling"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

func main() {
	var (
		systems = flag.String("systems", "sw-based,sw-less", "comma-separated systems: sw-based | sw-less | sw-less-2B | sw-less-4B | switch | mesh, each with optional -mis suffix for Valiant routing")
		pattern = flag.String("pattern", "uniform", "traffic pattern")
		from    = flag.Float64("from", 0.1, "first injection rate")
		to      = flag.Float64("to", 1.0, "last injection rate")
		step    = flag.Float64("step", 0.1, "rate step")
		groups  = flag.Int("groups", 0, "override W-group count")
		warmup  = flag.Int64("warmup", 5000, "warmup cycles")
		measure = flag.Int64("measure", 10000, "measured cycles")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		workers = flag.Int("workers", 0, "parallel workers per simulation")

		size   = cliflags.AddSize(flag.CommandLine)
		camp   = cliflags.AddCampaign(flag.CommandLine)
		faults = cliflags.AddFaults(flag.CommandLine)
		churn  = cliflags.AddChurn(flag.CommandLine)
		engine = cliflags.AddEngine(flag.CommandLine, cliflags.FlowPar|cliflags.FlowCold)
	)
	prof := profiling.Flags()
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatalf("%v", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "sldfsweep:", err)
		}
	}()

	timeline, err := churn.Resolve()
	if err != nil {
		fatalf("%v", err)
	}
	faultSpec, err := faults.Resolve()
	if err != nil {
		fatalf("%v", err)
	}
	eng, err := engine.Resolve()
	if err != nil {
		fatalf("%v", err)
	}
	sldf, df, err := size.Resolve()
	if err != nil {
		fatalf("%v", err)
	}

	rates := core.RateGrid(*from, *to, *step)
	sp := core.SimParams{Warmup: *warmup, Measure: *measure,
		ExtraDrain: *measure / 2, PacketSize: 4}
	eng.Apply(&sp)

	opts, diskCache, err := camp.Resolve(os.Stderr)
	if err != nil {
		fatalf("%v", err)
	}

	fig := metrics.Figure{Name: "sweep", Title: *pattern}
	for _, name := range strings.Split(*systems, ",") {
		cfg, err := parseSystem(strings.TrimSpace(name), sldf, df, *groups)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Seed = *seed
		cfg.Workers = *workers
		cfg.Faults = faultSpec
		cfg.Churn = timeline
		fmt.Fprintf(os.Stderr, "sweeping %s over %d rates...\n", name, len(rates))
		t0 := time.Now()
		s, err := core.SweepOpts(cfg, *pattern, rates, sp, opts)
		if err != nil {
			fatalf("sweep %s: %v", name, err)
		}
		fmt.Fprintf(os.Stderr, "sweep %s: %d rates in %v (incl. build)\n",
			name, len(rates), time.Since(t0).Round(time.Millisecond))
		s.Label = name
		fig.Series = append(fig.Series, s)
	}
	fmt.Print(fig.CSV())
	for _, s := range fig.Series {
		fmt.Fprintf(os.Stderr, "saturation(%s) ≈ %.2f flits/cycle/chip\n",
			s.Label, s.Saturation(3))
	}
	if diskCache != nil {
		fmt.Fprintln(os.Stderr, diskCache.StatsLine())
	}
}

// parseSystem maps a CLI name like "sw-less-2B-mis" to a Config, taking
// the Dragonfly parameters of the -size scale.
func parseSystem(name string, sldf topology.SLDFParams, df topology.DragonflyParams, groups int) (core.Config, error) {
	cfg := core.Config{}
	base := name
	switch {
	case strings.HasSuffix(base, "-mis-lower"):
		cfg.Mode = routing.ValiantLower
		base = strings.TrimSuffix(base, "-mis-lower")
	case strings.HasSuffix(base, "-mis"):
		cfg.Mode = routing.Valiant
		base = strings.TrimSuffix(base, "-mis")
	case strings.HasSuffix(base, "-ugal"):
		cfg.Mode = routing.Adaptive
		base = strings.TrimSuffix(base, "-ugal")
	}
	switch {
	case base == "switch":
		cfg.Kind = core.SingleSwitch
		cfg.Terminals = 4
		return cfg, nil
	case base == "mesh":
		cfg.Kind = core.MeshCGroup
		cfg.ChipletDim, cfg.NoCDim = 2, 2
		return cfg, nil
	case base == "sw-based":
		cfg.Kind = core.SwitchDragonfly
		cfg.DF = df
		if groups > 0 {
			cfg.DF.G = groups
		}
		return cfg, nil
	case strings.HasPrefix(base, "sw-less"):
		cfg.Kind = core.SwitchlessDragonfly
		cfg.SLDF = sldf
		switch strings.TrimPrefix(base, "sw-less") {
		case "":
			cfg.IntraWidth = 1
		case "-2B":
			cfg.IntraWidth = 2
		case "-4B":
			cfg.IntraWidth = 4
		case "-rvc":
			cfg.Scheme = routing.ReducedVC
		default:
			return cfg, fmt.Errorf("unknown system %q", base)
		}
		if groups > 0 {
			cfg.SLDF.G = groups
		}
		return cfg, nil
	}
	return cfg, fmt.Errorf("unknown system %q", name)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sldfsweep: "+format+"\n", args...)
	os.Exit(1)
}
