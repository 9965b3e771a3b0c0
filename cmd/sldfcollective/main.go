// Command sldfcollective measures collective-communication makespans on
// the evaluated systems: the paper Fig. 4 latency argument (ring vs 2D
// row-column vs hierarchical AllReduce) run end to end, with every step
// drained to its exact completion cycle. The panel is one plan measured by
// core.RunPlan in one fan-out, so its cases are content-addressed
// (resumable with -cache), fan out locally with -jobs, and shard across
// sldfd worker daemons with -remote — all byte-identical to a serial run.
//
//	sldfcollective -dim 4 -volume 4096
//	sldfcollective -systems sw-less,2d-mesh -schedules ring,hierarchical
//	sldfcollective -jobs 8 -cache .pts -csv collective.csv
//	sldfcollective -remote host1:8437,host2:8437
//	sldfcollective -faults 0.05 -faultseed 3      # re-routed around faults
//
// -jobs, -cache and -remote apply to every case of the panel at once;
// schedules re-route around the chips a -faults spec kills. -maxstep bounds
// the cycle engines' steps; the flow engine solves each step outright. A
// -volume that is not positive, a negative -maxstep or -killstep, a
// -killstep past a schedule's last step, and a -killchip or -packet that
// does not fit in int32 are rejected.
//
// With -killchip the command switches to the churn panel: each case runs
// the collective twice — undisturbed, and with the chip killed before step
// -killstep (schedules recompute over the survivors) — and reports the
// exact makespan cost of the in-flight death:
//
//	sldfcollective -systems sw-less,2d-mesh -killchip 1 -killstep 2
//	sldfcollective -killchip 1 -churn "policy=retry"   # stranded packets retry
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"sldf/internal/cliflags"
	"sldf/internal/core"
)

func main() {
	cliflags.Exit("sldfcollective", run(os.Args[1:], os.Stdout, os.Stderr))
}

// systemNames are the -systems values, in presentation order.
var systemNames = []string{"switch", "2d-mesh", "sw-based", "sw-less"}

// run executes the command with the given arguments, writing the report to
// w and diagnostics to errw. Split from main so tests can drive flag
// parsing, execution and formatting.
func run(args []string, w, errw io.Writer) error {
	fs := flag.NewFlagSet("sldfcollective", flag.ContinueOnError)
	fs.SetOutput(errw)
	systems := fs.String("systems", strings.Join(systemNames, ","),
		"comma-separated systems: "+strings.Join(systemNames, " | "))
	schedules := fs.String("schedules", strings.Join(core.CollectiveSchedules(), ","),
		"comma-separated schedules: "+strings.Join(core.CollectiveSchedules(), " | "))
	dim := fs.Int("dim", 4, "chip grid dimension for switch/2d-mesh (dim×dim chips)")
	volume := fs.Int64("volume", 4096, "AllReduce payload per chip in flits")
	packet := fs.Int("packet", core.DefaultCollectivePacket, "packet size in flits (used for injection AND the efficiency column)")
	maxStep := fs.Int64("maxstep", 0, "cycle bound per dependent step on the cycle engines (0 = the collective.RunSteps default, 1<<20; the flow engine ignores it)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	faults := cliflags.AddFaults(fs)
	churn := cliflags.AddChurn(fs)
	engine := cliflags.AddEngine(fs, 0)
	killChip := fs.Int("killchip", -1, "chip to kill mid-collective; switches to the churn panel (negative = off)")
	killStep := fs.Int("killstep", 1, "dependent step before which -killchip dies")
	camp := cliflags.AddCampaign(fs)
	csvPath := fs.String("csv", "", "also write the panel as CSV to this path (\"-\" = stdout)")
	if ok, err := cliflags.Parse(fs, args); !ok {
		return err
	}
	if *dim < 2 {
		return fmt.Errorf("-dim must be >= 2 (got %d)", *dim)
	}
	if *packet < 1 {
		return fmt.Errorf("-packet must be >= 1 (got %d)", *packet)
	}
	packetSize, err := int32Flag("packet", *packet)
	if err != nil {
		return err
	}
	kill, err := int32Flag("killchip", *killChip)
	if err != nil {
		return err
	}

	timeline, err := churn.Resolve()
	if err != nil {
		return err
	}
	eng, err := engine.Resolve()
	if err != nil {
		return err
	}
	faultSpec, err := faults.Resolve()
	if err != nil {
		return err
	}

	var plan core.ExperimentPlan
	if *killChip >= 0 {
		plan.Churn = []core.ChurnFigureSpec{{Name: "collective-churn",
			Title: fmt.Sprintf("Mid-collective chip %d death before step %d, %d flits/chip payload",
				*killChip, *killStep, *volume)}}
	} else {
		plan.Collectives = []core.CollectiveFigureSpec{{Name: "collective",
			Title: fmt.Sprintf("Collective makespans, %d flits/chip payload", *volume)}}
	}
	scheduleList := strings.Split(*schedules, ",")
	for _, sch := range scheduleList {
		if !slices.Contains(core.CollectiveSchedules(), sch) {
			return fmt.Errorf("unknown schedule %q (want %s)",
				sch, strings.Join(core.CollectiveSchedules(), ", "))
		}
	}
	for _, name := range strings.Split(*systems, ",") {
		cfg, err := systemConfig(name, *dim, *seed)
		if err != nil {
			return err
		}
		cfg.Faults = faultSpec
		cfg.Churn = timeline
		for _, sch := range scheduleList {
			if *killChip >= 0 {
				plan.Churn[0].Cases = append(plan.Churn[0].Cases, core.ChurnCaseSpec{
					Cfg: cfg, Schedule: sch, Label: name, Volume: *volume,
					PacketSize: packetSize, MaxStepCycles: *maxStep,
					KillChip: kill, KillStep: *killStep,
					Engine: eng.Kind,
				})
			} else {
				plan.Collectives[0].Cases = append(plan.Collectives[0].Cases, core.CollectiveCaseSpec{
					Cfg: cfg, Schedule: sch, Label: name, Volume: *volume,
					PacketSize: packetSize, MaxStepCycles: *maxStep,
					Engine: eng.Kind,
				})
			}
		}
	}

	opts, diskCache, err := camp.Resolve(errw)
	if err != nil {
		return err
	}

	res, err := core.RunPlan(plan, opts)
	if err != nil {
		return err
	}

	var csv string
	if *killChip >= 0 {
		fig := res.Churn[0]
		fmt.Fprintf(w, "%s\n\n", fig.Title)
		fmt.Fprintf(w, "%-10s %-16s %8s %12s %12s %12s %8s %8s\n",
			"system", "schedule", "steps", "baseline", "cycles", "cost", "dropped", "retried")
		for _, r := range fig.Rows {
			fmt.Fprintf(w, "%-10s %-16s %8d %12d %12d %12d %8d %8d\n",
				r.System, r.Schedule, r.Steps, r.BaselineCycles, r.Cycles,
				r.CostCycles, r.Dropped, r.Retried)
		}
		csv = fig.CSV()
	} else {
		fig := res.Collectives[0]
		fmt.Fprintf(w, "%s\n\n", fig.Title)
		fmt.Fprintf(w, "%-10s %-16s %8s %12s %10s %14s\n",
			"system", "schedule", "steps", "cycles", "packets", "flits/cyc/chip")
		for _, r := range fig.Rows {
			fmt.Fprintf(w, "%-10s %-16s %8d %12d %10d %14.2f\n",
				r.System, r.Schedule, r.Steps, r.Cycles, r.Packets, r.Efficiency)
		}
		csv = fig.CSV()
	}
	if err := writeCSV(w, *csvPath, csv); err != nil {
		return err
	}
	if diskCache != nil {
		fmt.Fprintln(errw, diskCache.StatsLine())
	}
	return nil
}

// int32Flag returns an int flag's value as the int32 the spec carries, or
// an error naming the flag when the value does not fit: a silent wrap
// would measure a different chip or packet size than the one asked for.
func int32Flag(name string, v int) (int32, error) {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: -%s %d does not fit in int32", core.ErrSimParams, name, v)
	}
	return int32(v), nil
}

// writeCSV writes a rendered CSV panel to path ("-" = the report stream,
// "" = discard).
func writeCSV(w io.Writer, path, csv string) error {
	switch path {
	case "":
		return nil
	case "-":
		fmt.Fprint(w, "\n"+csv)
		return nil
	default:
		if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		return nil
	}
}

// systemConfig maps a -systems name to its configuration: switch and
// 2d-mesh sized by -dim, the Dragonfly pair as one radix-16 W-group (the
// intra-W-group scale the paper's Fig. 4 argues about).
func systemConfig(name string, dim int, seed uint64) (core.Config, error) {
	kind, err := core.ParseKind(name)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{Kind: kind, Seed: seed}
	switch kind {
	case core.SingleSwitch:
		cfg.Terminals = dim * dim
	case core.MeshCGroup:
		cfg.ChipletDim, cfg.NoCDim = dim, 2
	case core.SwitchDragonfly:
		cfg.DF = core.Radix16DF()
		cfg.DF.G = 1
	case core.SwitchlessDragonfly:
		cfg.SLDF = core.Radix16SLDF()
		cfg.SLDF.G = 1
	}
	return cfg, nil
}
