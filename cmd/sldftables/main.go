// Command sldftables regenerates the paper's tables and the Fig. 9 layout
// study: Table I (chip survey), Table II (hop costs), Table III (network
// comparison), Table IV (simulation defaults), and the C-group floorplan
// feasibility report.
//
//	sldftables                # everything
//	sldftables -table 3       # only Table III
//	sldftables -fig 9         # only the layout report
//	sldftables -sat           # simulated saturation-rate summary (quick scale)
//	sldftables -experiments   # the experiment registry with figure mappings
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"sldf/internal/analysis"
	"sldf/internal/campaign"
	"sldf/internal/core"
	"sldf/internal/cost"
	"sldf/internal/layout"
	"sldf/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2) // the flag package's historical usage-error status
		}
		fmt.Fprintf(os.Stderr, "sldftables: %v\n", err)
		os.Exit(1)
	}
}

// errUsage signals main that the flag package already reported the problem
// (usage text included) on the error writer.
var errUsage = errors.New("usage error")

// run executes the command with the given arguments, writing report output
// to w and diagnostics to errw. Split from main so tests can drive flag
// parsing and formatting.
func run(args []string, w, errw io.Writer) error {
	fs := flag.NewFlagSet("sldftables", flag.ContinueOnError)
	fs.SetOutput(errw)
	table := fs.String("table", "all", "which table: 1 | 2 | 3 | 4 | all")
	figN := fs.Int("fig", 0, "also print a figure study (9 = layout)")
	sat := fs.Bool("sat", false, "also print a simulated saturation-rate summary (single W-group, quick windows)")
	experiments := fs.Bool("experiments", false, "also print the experiment registry (every registered spec with its figure mapping)")
	jobs := fs.Int("jobs", 0, "sweep points measured concurrently for -sat (0 = all points at once)")
	cacheDir := fs.String("cache", "", "directory for the -sat on-disk point cache (empty = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed usage; that is success, not failure
		}
		return errUsage // the flag package already printed error + usage
	}
	switch *table {
	case "1", "2", "3", "4", "all":
	default:
		return fmt.Errorf("unknown -table %q (want 1, 2, 3, 4 or all)", *table)
	}
	if *figN != 0 && *figN != 9 {
		return fmt.Errorf("unknown -fig %d (only the Fig. 9 layout study exists)", *figN)
	}

	want := func(id string) bool { return *table == "all" || *table == id }

	if want("1") {
		fmt.Fprintln(w, "TABLE I — external communication and switching capability")
		fmt.Fprintf(w, "%-10s %-10s %8s %10s %12s\n", "chip", "category", "lanes", "Gbps/lane", "Tb/s total")
		for _, c := range cost.TableI() {
			fmt.Fprintf(w, "%-10s %-10s %8d %10.0f %12.1f\n",
				c.Name, c.Category, c.Lanes, c.DataRateGb, c.ThroughputTb())
		}
		fmt.Fprintln(w)
	}

	if want("2") {
		fmt.Fprintln(w, "TABLE II — hop cost comparison")
		fmt.Fprintf(w, "%-10s %14s %14s\n", "hop", "latency (ns)", "energy (pJ/bit)")
		for _, name := range []string{"global", "local", "sr", "on-chip"} {
			c := analysis.TableII()[name]
			fmt.Fprintf(w, "%-10s %14.1f %14.1f\n", name, c.LatencyNS, c.EnergyPJ)
		}
		fmt.Fprintln(w)
	}

	if want("3") {
		fmt.Fprintln(w, "TABLE III — comparison of key specifications (radix-64 class)")
		fmt.Fprintf(w, "%-28s %6s %6s %8s %8s %10s %9s %7s %7s  %s\n",
			"network", "chipR", "swR", "switches", "cabinets", "processors",
			"cables", "Tlocal", "Tglob", "diameter")
		for _, r := range cost.TableIII() {
			fmt.Fprintf(w, "%-28s %6d %6d %8d %8d %10d %8dK %7.2f %7.2f  %s\n",
				r.Name, r.ChipRadix, r.SWRadix, r.Switches, r.Cabinets,
				r.Processors, r.Cables/1000, r.TLocal, r.TGlobal, r.Diameter)
		}
		sl, sw := cost.Slingshot(), cost.SwitchlessDragonfly()
		fmt.Fprintf(w, "\nswitch-less vs Slingshot at %d processors: %d→%d cabinets, "+
			"%d→0 switches, inter-cabinet cable ratio %.2f (paper: 73K/154K = 0.47)\n\n",
			sw.Processors, sl.Cabinets, sw.Cabinets, sl.Switches,
			sw.CableLengthE()/sl.CableLengthE())
	}

	if want("4") {
		sp := core.DefaultSim()
		fmt.Fprintln(w, "TABLE IV — default simulation parameters")
		fmt.Fprintf(w, "%-24s %v flits\n", "packet length", sp.PacketSize)
		fmt.Fprintf(w, "%-24s 32 flits\n", "input buffer size")
		fmt.Fprintf(w, "%-24s 1 flit/cycle\n", "base link bandwidth")
		fmt.Fprintf(w, "%-24s 1 cycle\n", "short-reach link delay")
		fmt.Fprintf(w, "%-24s 8 cycles\n", "long-reach link delay")
		fmt.Fprintf(w, "%-24s %d cycles after %d warmup\n", "simulation time", sp.Measure, sp.Warmup)
		fmt.Fprintln(w)
	}

	if *figN == 9 || (*table == "all" && *figN == 0) {
		r, err := layout.PaperPlan().Analyze()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "FIG. 9 — C-group layout feasibility (60mm × 60mm, 16 chiplets)")
		fmt.Fprintf(w, "%-32s %d\n", "external ports (k)", r.ExternalPorts)
		fmt.Fprintf(w, "%-32s %.0f Gb/s\n", "on-wafer bandwidth/port", r.OnWaferPortGbps)
		fmt.Fprintf(w, "%-32s %.0f Gb/s\n", "off-wafer bandwidth/port", r.OffWaferPortGbps)
		fmt.Fprintf(w, "%-32s %d (paper: 1536)\n", "differential pairs", r.DiffPairs)
		fmt.Fprintf(w, "%-32s %d (paper: ~5500)\n", "total IOs incl. power/ground", r.TotalIOs)
		fmt.Fprintf(w, "%-32s %.2f TB/s (paper: 12)\n", "on-wafer bisection", r.BisectionTBs)
		fmt.Fprintf(w, "%-32s %.2f TB/s (paper: 20.9)\n", "off-wafer aggregate", r.AggregateTBs)
		fmt.Fprintf(w, "%-32s %.0f%%\n", "silicon area utilization", r.AreaUtilization*100)
		fmt.Fprintf(w, "%-32s %d\n", "C-groups per wafer", r.CGroupsPerWafer)
		fmt.Fprintf(w, "%-32s %d (paper: 192)\n", "wafer IO channels (4 CG, k=48)", r.WaferIOChannels)
		fmt.Fprintf(w, "%-32s %v\n", "feasible", r.Feasible())
	}

	if *experiments {
		experimentRegistry(w)
	}

	if *sat {
		if err := saturationSummary(w, errw, *jobs, *cacheDir); err != nil {
			return err
		}
	}
	return nil
}

// experimentRegistry enumerates the core experiment registry: every
// registered spec with the figures it expands to and their series. The
// command prints data the registry declares — there is no per-figure code
// here to drift out of sync.
func experimentRegistry(w io.Writer) {
	fmt.Fprintln(w, "EXPERIMENT REGISTRY — declarative specs behind sldffigures")
	for _, spec := range core.Experiments() {
		fmt.Fprintf(w, "%-12s %s\n", spec.Name, spec.Title)
		plan := spec.Plan(core.ScaleQuick)
		for _, f := range plan.Figures {
			labels := make([]string, len(f.Series))
			for i, s := range f.Series {
				labels[i] = seriesLabel(s)
			}
			fmt.Fprintf(w, "  %-10s %-34s %d series: %s\n",
				f.Name, f.Title, len(f.Series), strings.Join(labels, ", "))
		}
		for _, f := range plan.Energy {
			labels := make([]string, len(f.Bars))
			for i, b := range f.Bars {
				labels[i] = b.Label
			}
			fmt.Fprintf(w, "  %-10s %-34s %d bars: %s\n",
				f.Name, f.Title, len(f.Bars), strings.Join(labels, ", "))
		}
		for _, f := range plan.Resilience {
			labels := make([]string, len(f.Series))
			for i, s := range f.Series {
				labels[i] = s.Label
			}
			fmt.Fprintf(w, "  %-10s %-34s %d series over %d fractions: %s\n",
				f.Name, f.Title, len(f.Series), len(f.Opts.Fractions), strings.Join(labels, ", "))
		}
		for _, f := range plan.Collectives {
			var systems, schedules []string
			for _, c := range f.Cases {
				systems = append(systems, caseLabel(c.Label, c.Cfg))
				schedules = append(schedules, c.Schedule)
			}
			casePanel(w, f.Name, f.Title, systems, schedules)
		}
		for _, f := range plan.Churn {
			var systems, schedules []string
			for _, c := range f.Cases {
				systems = append(systems, caseLabel(c.Label, c.Cfg))
				schedules = append(schedules, c.Schedule)
			}
			casePanel(w, f.Name, f.Title, systems, schedules)
		}
	}
	fmt.Fprintln(w)
}

// caseLabel resolves a collective or churn case's display label the way
// the runners do.
func caseLabel(label string, cfg core.Config) string {
	if label != "" {
		return label
	}
	return cfg.Label()
}

// casePanel prints one case-list panel (collective or churn): its case
// count and the distinct systems × schedules the cases span, given each
// case's system label and schedule.
func casePanel(w io.Writer, name, title string, systems, schedules []string) {
	n := len(systems)
	slices.Sort(systems)
	slices.Sort(schedules)
	fmt.Fprintf(w, "  %-10s %-34s %d cases: %d systems × %d schedules\n",
		name, title, n, len(slices.Compact(systems)), len(slices.Compact(schedules)))
}

// seriesLabel resolves a series spec's display label the way the runner
// does.
func seriesLabel(s core.SeriesSpec) string {
	if s.Label != "" {
		return s.Label
	}
	return s.Cfg.Label()
}

// saturationSummary measures saturation rates of the radix-16 systems
// confined to one W-group under uniform and bit-reverse traffic, fanning
// the sweep points out over the campaign runner.
func saturationSummary(w, errw io.Writer, jobs int, cacheDir string) error {
	opts := core.RunOptions{Jobs: jobs}
	if jobs <= 0 {
		opts.Jobs = 16
	}
	var diskCache *campaign.Cache
	if cacheDir != "" {
		c, err := campaign.OpenCache(cacheDir)
		if err != nil {
			return err
		}
		diskCache = c
		opts.Store = campaign.NewTiered[metrics.Point](
			campaign.NewMemoryLRU[metrics.Point](1024), c)
	}
	swb := core.Config{Kind: core.SwitchDragonfly, DF: core.Radix16DF(), Seed: 1, Workers: 1}
	swb.DF.G = 1
	swl := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(), Seed: 1, Workers: 1}
	swl.SLDF.G = 1
	swl2 := swl
	swl2.IntraWidth = 2
	patterns := []string{"uniform", "bit-reverse"}
	rates := core.RateGrid(0.2, 2.0, 0.2)

	fmt.Fprintln(w, "SATURATION — single W-group, quick windows, latency-knee criterion")
	fmt.Fprintf(w, "%-14s", "system")
	for _, p := range patterns {
		fmt.Fprintf(w, "%14s", p)
	}
	fmt.Fprintln(w)
	for _, cfg := range []core.Config{swb, swl, swl2} {
		fmt.Fprintf(w, "%-14s", cfg.Label())
		for _, p := range patterns {
			s, err := core.SweepOpts(cfg, p, rates, core.QuickSim(), opts)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", cfg.Label(), p, err)
			}
			fmt.Fprintf(w, "%14.2f", s.Saturation(3))
		}
		fmt.Fprintln(w)
	}
	if diskCache != nil {
		fmt.Fprintln(errw, diskCache.StatsLine())
	}
	return nil
}
