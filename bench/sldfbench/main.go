// Command sldfbench is the repository benchmark. It runs one workload in
// its own process (so peak RSS is the workload's own), verifies every
// output point against pinned golden lines, and prints every metric by
// name and unit, ending with one JSON result line:
//
//	sldfbench --workload cycle-r16 --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced passes for the budget, writes the traced spans to --spans,
// and prints the per-layer metrics. See bench/README.md for the workloads
// and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"sldf/internal/core"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// workloadNames lists the workloads in the order the README presents them.
var workloadNames = []string{"cycle-r16", "flow-r32", "churn-r16", "campaign-quick"}

// Execution shape, fixed so every run loads the machine the same way.
const (
	daemons = 2 // loopback worker daemons of one job each
	replays = 4 // per replay kind, per campaign pass

	minSetupReps = 5
	maxSetupReps = 50
	setupBudget  = 500 * time.Millisecond
)

// newWorkload returns a workload's inputs for a seed. The seed sets every
// Config.Seed and the churn seed; nothing else varies between seeds.
//
// The cycle and churn workloads simulate one W-group of the radix-16
// system, whose state fits in a core's private cache: on a shared machine
// the full radix-16 system's timings swung by 2-3x from minute to minute
// with what other tenants did to the shared cache and memory bandwidth,
// the W-group's by about a tenth. One worker keeps barrier wake-ups out of
// the cycle loop. flow-r32 is the one workload at scale, memory-bound by
// design.
func newWorkload(name string, seed uint64) (workload, error) {
	wgroup := core.Radix16SLDF()
	wgroup.G = 1
	switch name {
	case "cycle-r16":
		dfWGroup := core.Radix16DF()
		dfWGroup.G = 1
		return sweep{
			cfgs: []core.Config{
				{Kind: core.SwitchlessDragonfly, SLDF: wgroup, Seed: seed, Workers: 1},
				{Kind: core.SwitchDragonfly, DF: dfWGroup, Seed: seed, Workers: 1},
			},
			pattern: "uniform",
			rates:   []float64{0.2, 0.6, 1.0, 1.4},
			sim:     core.DefaultSim(),
		}, nil
	case "flow-r32":
		return sweep{
			cfgs:    []core.Config{{Kind: core.SwitchlessDragonfly, SLDF: core.Radix32SLDF(), Seed: seed, Workers: 2}},
			pattern: "uniform", rates: core.RateGrid(0.1, 0.6, 0.1),
			sim: core.SimParams{Warmup: 100, Measure: 200, ExtraDrain: 100, PacketSize: 4,
				Engine: netsim.EngineFlow, FlowWorkers: 2},
		}, nil
	case "churn-r16":
		ch, err := cableChurn(wgroup, seed)
		if err != nil {
			return nil, err
		}
		return sweep{
			cfgs:    []core.Config{{Kind: core.SwitchlessDragonfly, SLDF: wgroup, Seed: seed, Workers: 1, Churn: ch}},
			pattern: "uniform", rates: []float64{0.2, 0.6, 1.0, 1.4},
			sim: core.SimParams{Warmup: 500, Measure: 1000, ExtraDrain: 500, PacketSize: 4,
				Engine: netsim.EngineFlow, FlowWorkers: 1},
		}, nil
	case "campaign-quick":
		plans, err := registryPlans([]string{"10", "14", "collective", "churn"}, core.ScaleQuick, seed)
		if err != nil {
			return nil, err
		}
		return campaignWork{plans: plans, daemons: daemons, replays: replays}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// Churn of churn-r16: churnCables long-reach cables, drawn by seed, die one
// after another at evenly spaced cycles in [churnStart, churnEnd) and each
// comes back churnRepair cycles later, with stranded packets retried at
// their source. The event cycles are the same for every seed, so every
// seed solves the same number of segments and costs the same to run.
const (
	churnCables = 6
	churnStart  = 200
	churnEnd    = 1200
	churnRepair = 100
)

// cableChurn returns the churn timeline of a one-W-group SLDF system. Only
// the cables between C-groups fail, never on-wafer mesh links, and the
// repair delay is shorter than the spacing of the deaths, so one cable at
// most is down at a time: every pair of C-groups keeps a path and no seed
// can partition the network. (Sampling mesh links as well, as
// FaultTimeline's link churn does, cuts a corner core off for a few seeds
// in a thousand.)
func cableChurn(p topology.SLDFParams, seed uint64) (topology.FaultTimeline, error) {
	// The same link classes core.Build gives a churn-armed system, so the
	// link IDs below are the ones it builds.
	s, err := topology.BuildSLDF(p, topology.DefaultLinkClasses(core.FaultVCs, 1),
		netsim.NetworkOptions{Seed: seed, Workers: 1})
	if err != nil {
		return topology.FaultTimeline{}, fmt.Errorf("churn cables: %w", err)
	}
	defer s.Net.Close()
	var cables [][2]int32
	for _, ch := range s.FaultDomain().Channels {
		if s.Net.Links[ch[0]].Class == netsim.HopLongLocal {
			cables = append(cables, ch)
		}
	}
	if len(cables) <= churnCables {
		return topology.FaultTimeline{}, fmt.Errorf("churn cables: %d cables, need more than %d", len(cables), churnCables)
	}
	rng := rand.New(rand.NewPCG(seed, 0xC4B1E))
	t := topology.FaultTimeline{Seed: seed, Policy: netsim.RetrySource}
	for k, i := range rng.Perm(len(cables))[:churnCables] {
		at := int64(churnStart + k*(churnEnd-churnStart)/churnCables)
		for _, id := range cables[i] {
			t.Events = append(t.Events, netsim.LinkFault(at, id, false), netsim.LinkFault(at+churnRepair, id, true))
		}
	}
	return t, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	spans    string
	golden   string
	tmp      string
	update   bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("sldfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var secs float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, " | "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (seeds 1 and 2 have pinned goldens)")
	fs.Float64Var(&secs, "seconds", 25, "measurement budget: passes repeat while another fits (at least one)")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "span output of a traced run (default .bench_build/spans/WORKLOAD.seedN.json)")
	fs.StringVar(&o.golden, "golden", filepath.Join("bench", "testdata"), "directory of pinned golden lines")
	fs.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "scratch directory for point stores")
	fs.BoolVar(&o.update, "update", false, "rewrite this workload's golden for --seed (never in a change that claims a gain)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if !slices.Contains(workloadNames, o.workload) {
		return o, fmt.Errorf("--workload must be one of %s", strings.Join(workloadNames, ", "))
	}
	if secs <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.budget = time.Duration(secs * float64(time.Second))
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s.seed%d.json", o.workload, o.seed))
	}
	return o, nil
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "sldfbench:", err)
		}
		return 2
	}
	res, err := measure(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "sldfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "sldfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs the workload and returns its verified result, printing a
// readable report on the way.
func measure(o options, stdout, stderr io.Writer) (result, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return result{}, err
	}
	gpath := goldenPath(o.golden, o.workload, o.seed)
	r := &runner{tmp: o.tmp, log: stderr}
	if !o.update {
		if r.golden, err = readGolden(gpath); err != nil {
			return result{}, err
		}
	}
	if r.golden == nil {
		fmt.Fprintf(stderr, "no golden for seed %d: checking invariants and pass-to-pass identity\n", o.seed)
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return result{}, fmt.Errorf("scratch directory: %w", err)
	}

	var vals map[string]float64
	var defs []metricDef
	if o.trace {
		defs = perLayer
		vals, err = measureTraced(r, w, o)
	} else {
		defs = endToEnd
		vals, err = measureEndToEnd(r, w, o.budget, stdout)
	}
	if err != nil {
		return result{}, err
	}
	if o.update {
		if r.failed > 0 {
			return result{}, fmt.Errorf("not updating %s: %d points failed their invariants", gpath, r.failed)
		}
		if err := writeGolden(gpath, r.ref); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stderr, "wrote %d lines to %s\n", len(r.ref), gpath)
	}

	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	tw := bufio.NewWriter(stdout)
	fmt.Fprintf(tw, "%s seed %d: %d points, %d failed\n", o.workload, o.seed, r.attempted, r.failed)
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		fmt.Fprintf(tw, "  %-34s %16s %s\n", d.name, strconv.FormatFloat(vals[d.name], 'g', 8, 64), d.unit)
	}
	if err := tw.Flush(); err != nil {
		return result{}, err
	}
	return res, nil
}

// repeat runs passes until the next one would overrun the budget; it
// always runs at least one.
func repeat(r *runner, w workload, budget time.Duration) ([]passStats, error) {
	start := time.Now()
	var stats []passStats
	for {
		t0 := time.Now()
		ps, err := r.runPass(w)
		if err != nil {
			return nil, err
		}
		stats = append(stats, ps)
		if time.Since(start)+time.Since(t0) > budget {
			return stats, nil
		}
	}
}

// measureEndToEnd is the untraced run. Set-up is also repeated on its own
// before the passes — at least minSetupReps times and for setupBudget,
// capped at maxSetupReps — so its median rests on many samples even when
// only a few passes fit.
func measureEndToEnd(r *runner, w workload, budget time.Duration, stdout io.Writer) (map[string]float64, error) {
	var setups []time.Duration
	start := time.Now()
	for len(setups) < minSetupReps || time.Since(start) < setupBudget && len(setups) < maxSetupReps {
		runtime.GC() // the state each pass starts from
		d, err := w.setup(r)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	passes, err := repeat(r, w, budget)
	if err != nil {
		return nil, err
	}
	var walls, firsts []time.Duration
	var rss []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		firsts = append(firsts, p.first)
		setups = append(setups, p.setup)
		rss = append(rss, p.rssMiB)
	}
	fmt.Fprintf(stdout, "%d passes, %d set-up samples\n", len(passes), len(setups))
	return map[string]float64{
		"wall_s":        median(seconds(walls)),
		"setup_s":       median(seconds(setups)),
		"first_point_s": median(seconds(firsts)),
		"peak_rss_mb":   median(rss),
	}, nil
}

// measureTraced alternates untraced and traced passes until the budget is
// spent, and derives the per-layer metrics from the traced passes' spans.
// Alternating exposes both kinds of pass to the same stretches of machine
// noise, so the overhead figure compares like with like.
func measureTraced(r *runner, w workload, o options) (map[string]float64, error) {
	tr := newTracer()
	var plain, traced []passStats
	var ids []int
	start := time.Now()
	for {
		t0 := time.Now()
		r.tr = nil
		p, err := r.runPass(w)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
		r.tr = tr
		if p, err = r.runPass(w); err != nil {
			return nil, err
		}
		traced = append(traced, p)
		ids = append(ids, r.passSpan)
		if time.Since(start)+time.Since(t0) > o.budget {
			break
		}
	}
	spans := tr.snapshot()
	if err := tr.write(o.spans); err != nil {
		return nil, err
	}
	if bad := phaseOverruns(spans); bad > 0 {
		fmt.Fprintf(r.log, "FAIL: %d points whose phases outlast the point\n", bad)
		r.failed += bad
	}

	perPass := make([]map[string]float64, len(ids))
	for i, id := range ids {
		perPass[i] = layerMetrics(subtree(spans, id))
	}
	vals := map[string]float64{}
	for _, d := range perLayer {
		xs := make([]float64, len(perPass))
		for i, m := range perPass {
			xs[i] = m[d.name]
		}
		vals[d.name] = median(xs)
	}
	for k, v := range pooledMetrics(spans) {
		vals[k] = v
	}
	var pw, tw []time.Duration
	for _, p := range plain {
		pw = append(pw, p.wall)
	}
	for _, p := range traced {
		tw = append(tw, p.wall)
	}
	vals["trace.overhead_frac"] = median(seconds(tw))/median(seconds(pw)) - 1
	return vals, nil
}
