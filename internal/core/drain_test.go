package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sldf/internal/campaign"
	"sldf/internal/campaign/remote"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
	"sldf/internal/traffic"
)

// measureFullTail is MeasureLoad's cycle-engine path with the drain tail
// run to its ExtraDrain cap through the public sequence: Run(Warmup),
// StartMeasurement, Run(Measure), StopMeasurement, Run(ExtraDrain). It is
// the oracle the early-ending tail must reproduce.
func measureFullTail(t *testing.T, sys *System, pat traffic.Pattern, rate float64, sp SimParams) Result {
	t.Helper()
	sys.Net.SetEngine(sp.Engine)
	var gen traffic.Rate
	gen.Init(traffic.FilterDead(pat, sys.Net.AliveChips()), rate, sp.PacketSize, sys.NodesPerChip)
	sys.Net.SetTraffic(&gen, sp.PacketSize, netsim.DstSameIndex)
	if err := sys.Net.Run(sp.Warmup); err != nil {
		t.Fatal(err)
	}
	sys.Net.StartMeasurement()
	if err := sys.Net.Run(sp.Measure); err != nil {
		t.Fatal(err)
	}
	sys.Net.StopMeasurement()
	if err := sys.Net.Run(sp.ExtraDrain); err != nil {
		t.Fatal(err)
	}
	return sys.result(rate)
}

// detach copies the network-owned Hottest scratch out of res, so a later
// measurement on the same system cannot overwrite it.
func detach(res Result) Result {
	res.Hottest = append([]netsim.LinkUtil(nil), res.Hottest...)
	return res
}

// windowed clears the three all-time counters the early tail is allowed
// to change, leaving every field that describes the measurement window.
func windowed(st netsim.Stats) netsim.Stats {
	st.InjectedPkts, st.DeliveredPkts, st.InFlightPkts = 0, 0, 0
	return st
}

// TestEarlyDrainMatchesFullTail is the oracle for MeasureLoad's early drain
// tail. Every point is measured twice on one system (Reset between): once
// through MeasureLoad and once with the full ExtraDrain tail. The point,
// energy, link utilization, hottest links and every windowed Stats field
// must match bit for bit on every system kind, a faulted build, two
// patterns, rates below, at and past saturation, both cycle engines and
// one and four workers. The tail must end early at the low rate and run to
// its cap past saturation. A churn-armed build keeps the full tail and
// matches on every field.
func TestEarlyDrainMatchesFullTail(t *testing.T) {
	swb := Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: 3}
	swb.DF.G = 1
	swl := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 3}
	swl.SLDF.G = 1
	faulted := swl
	faulted.Faults = topology.FaultSpec{Seed: 4, LinkFraction: 0.08, RouterFraction: 0.04}
	churned := swl
	churned.Churn = churnWindow(0.04, 0.02, netsim.RetrySource)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"switch", Config{Kind: SingleSwitch, Terminals: 4, Seed: 3}},
		{"mesh", Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 3}},
		{"sw-based", swb},
		{"sw-less", swl},
		{"sw-less-faulted", faulted},
		{"sw-less-churn", churned},
	}
	const low, knee, past = 0.1, 0.7, 4.0
	sp := SimParams{Warmup: 100, Measure: 300, ExtraDrain: 300, PacketSize: 4}
	for _, c := range cases {
		// tails holds each point's tail length: both engines and both
		// worker counts must end it on the same cycle.
		tails := map[string]int64{}
		for _, workers := range []int{1, 4} {
			cfg := c.cfg
			cfg.Workers = workers
			t.Run(fmt.Sprintf("%s/w%d", c.name, workers), func(t *testing.T) {
				sys, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				churn := sys.Net.ChurnArmed()
				for _, pattern := range []string{"uniform", "bit-reverse"} {
					pat, err := sys.PatternFor(pattern)
					if err != nil {
						t.Fatal(err)
					}
					for _, kind := range []netsim.EngineKind{netsim.EngineActiveSet, netsim.EngineReference} {
						for _, rate := range []float64{low, knee, past} {
							sp.Engine = kind
							where := fmt.Sprintf("%s %v rate %g", pattern, kind, rate)
							sys.Reset()
							got, err := sys.MeasureLoad(pat, rate, sp)
							if err != nil {
								t.Fatalf("%s: %v", where, err)
							}
							got = detach(got)
							sys.Reset()
							want := measureFullTail(t, sys, pat, rate, sp)
							if want.Stats.WindowPkts == 0 {
								t.Fatalf("%s: no window packets; the comparison would be vacuous", where)
							}
							assertSameWindow(t, where, got, want, churn)
							point := fmt.Sprintf("%s rate %g", pattern, rate)
							if n, ok := tails[point]; ok && n != got.DrainCycles {
								t.Errorf("%s: tail ran %d cycles, %d on another engine or worker count",
									where, got.DrainCycles, n)
							}
							tails[point] = got.DrainCycles
							switch {
							case churn && got.DrainCycles != sp.ExtraDrain:
								t.Errorf("%s: churn-armed tail ran %d cycles, want the full %d",
									where, got.DrainCycles, sp.ExtraDrain)
							case rate == low && got.DrainCycles >= sp.ExtraDrain && !churn:
								t.Errorf("%s: tail ran %d cycles, want fewer than %d at a low rate",
									where, got.DrainCycles, sp.ExtraDrain)
							case rate == past && got.DrainCycles != sp.ExtraDrain:
								t.Errorf("%s: tail ran %d cycles, want the cap %d past saturation",
									where, got.DrainCycles, sp.ExtraDrain)
							}
						}
					}
				}
			})
		}
	}
}

// assertSameWindow compares every result field of got and want bit for
// bit, except the three all-time packet counters unless all is set.
func assertSameWindow(t *testing.T, where string, got, want Result, all bool) {
	t.Helper()
	if !reflect.DeepEqual(got.Point, want.Point) {
		t.Errorf("%s: point %+v, full tail %+v", where, got.Point, want.Point)
	}
	gs, ws := got.Stats, want.Stats
	if !all {
		gs, ws = windowed(gs), windowed(ws)
	}
	if gs != ws {
		t.Errorf("%s: stats differ from the full tail:\n got %+v\nwant %+v", where, gs, ws)
	}
	if got.Energy != want.Energy {
		t.Errorf("%s: energy %+v, full tail %+v", where, got.Energy, want.Energy)
	}
	for c := range got.Utilization {
		if math.Float64bits(got.Utilization[c]) != math.Float64bits(want.Utilization[c]) {
			t.Errorf("%s: class %d utilization %v, full tail %v", where, c, got.Utilization[c], want.Utilization[c])
		}
	}
	if len(got.Hottest) != len(want.Hottest) {
		t.Fatalf("%s: %d hottest links, full tail %d", where, len(got.Hottest), len(want.Hottest))
	}
	for i := range got.Hottest {
		if got.Hottest[i] != want.Hottest[i] {
			t.Errorf("%s: hottest[%d] = link %d %+v, full tail link %d %+v", where, i,
				got.Hottest[i].ID, got.Hottest[i], want.Hottest[i].ID, want.Hottest[i])
		}
	}
}

// TestFlowRejectsAdaptive: the flow engine traces one path per pair on a
// network that holds no packets, so UGAL's occupancy-driven choice would
// always be the minimal path. A flow load point or collective on an
// adaptive system is rejected with ErrSimParams, naming the engine and the
// mode, by MeasureLoad, MeasureCollective and the job lowering, instead of
// printing minimal routing under UGAL's name.
func TestFlowRejectsAdaptive(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, Seed: 7, Mode: routing.Adaptive, Workers: 1,
		SLDF: topology.SLDFParams{NoCDim: 2, ChipCols: 2, ChipRows: 2, AB: 4, H: 2}}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pat, err := sys.PatternFor("uniform")
	if err != nil {
		t.Fatal(err)
	}
	sp := SimParams{Warmup: 10, Measure: 20, PacketSize: 4, Engine: netsim.EngineFlow}
	cs := CollectiveSpec{Cfg: cfg, Schedule: "ring", Volume: 32, Engine: netsim.EngineFlow}
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrSimParams) || !strings.Contains(err.Error(), "flow") ||
			!strings.Contains(err.Error(), "adaptive") {
			t.Errorf("%s: err = %v, want ErrSimParams naming the flow engine and adaptive routing", what, err)
		}
	}
	_, err = sys.MeasureLoad(pat, 0.3, sp)
	check("MeasureLoad", err)
	_, err = PointJob(cfg, "uniform", 0.3, sp)
	check("PointJob", err)
	_, err = sys.MeasureCollective(cs)
	check("MeasureCollective", err)
	_, err = CollectiveJob(cs)
	check("CollectiveJob", err)

	sp.Engine = netsim.EngineActiveSet
	if _, err := sys.MeasureLoad(pat, 0.3, sp); err != nil {
		t.Fatalf("cycle engine: %v", err)
	}
}

// TestMeasureLoadRejectsBadParams checks that MeasureLoad and PointJob
// refuse every invalid window or rate with ErrSimParams on both the cycle
// and the flow engine, while rate 0 stays a valid (idle) point.
func TestMeasureLoadRejectsBadParams(t *testing.T) {
	sys, err := Build(Config{Kind: SingleSwitch, Terminals: 4, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	pat, err := sys.PatternFor("uniform")
	if err != nil {
		t.Fatal(err)
	}
	good := SimParams{Warmup: 10, Measure: 20, ExtraDrain: 10, PacketSize: 4}
	bad := map[string]func(sp *SimParams, rate *float64){
		"warmup -10":    func(sp *SimParams, _ *float64) { sp.Warmup = -10 },
		"measure 0":     func(sp *SimParams, _ *float64) { sp.Measure = 0 },
		"measure -5":    func(sp *SimParams, _ *float64) { sp.Measure = -5 },
		"drain -1":      func(sp *SimParams, _ *float64) { sp.ExtraDrain = -1 },
		"packet size 0": func(sp *SimParams, _ *float64) { sp.PacketSize = 0 },
		"rate -1":       func(_ *SimParams, r *float64) { *r = -1 },
		"rate NaN":      func(_ *SimParams, r *float64) { *r = math.NaN() },
		"rate +Inf":     func(_ *SimParams, r *float64) { *r = math.Inf(1) },
	}
	for _, kind := range []netsim.EngineKind{netsim.EngineActiveSet, netsim.EngineFlow} {
		for name, mutate := range bad {
			sp, rate := good, 0.5
			sp.Engine = kind
			mutate(&sp, &rate)
			sys.Reset()
			if _, err := sys.MeasureLoad(pat, rate, sp); !errors.Is(err, ErrSimParams) {
				t.Errorf("%v %s: MeasureLoad err = %v, want ErrSimParams", kind, name, err)
			}
			if _, err := PointJob(sys.Cfg, "uniform", rate, sp); !errors.Is(err, ErrSimParams) {
				t.Errorf("%v %s: PointJob err = %v, want ErrSimParams", kind, name, err)
			}
		}
		sp := good
		sp.Engine = kind
		sys.Reset()
		res, err := sys.MeasureLoad(pat, 0, sp)
		if err != nil {
			t.Fatalf("%v rate 0: %v", kind, err)
		}
		if res.Point.Throughput != 0 || res.DrainCycles != 0 {
			t.Errorf("%v rate 0: throughput %v, drain %d cycles; want an idle point with no tail",
				kind, res.Point.Throughput, res.DrainCycles)
		}
	}
}

// TestPointSpecRejectsBadParams hands a worker a point spec PointJob would
// refuse (a coordinator that skipped the check, or a hand-written /run
// payload): the executor fails with ErrSimParams before building a system,
// and a worker daemon answers the same spec with that error.
func TestPointSpecRejectsBadParams(t *testing.T) {
	cfg := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1, Workers: 1}
	payload, err := json.Marshal(PointSpec{Cfg: cfg, Pattern: "uniform", Rate: -1, Sim: tinySim()})
	if err != nil {
		t.Fatal(err)
	}
	for fam := range pointFamilies {
		var w campaign.Worker
		if _, err := runPointSpec(&w, payload, pointFamily(fam)); !errors.Is(err, ErrSimParams) {
			t.Fatalf("family %d: executor err = %v, want ErrSimParams", fam, err)
		}
		if _, built := w.Cached(cfg.cacheID()); built {
			t.Fatalf("family %d: the executor built a system for a spec it rejects", fam)
		}
	}

	srv := remote.NewServer(remote.ServerOptions{Jobs: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	backend, err := remote.New([]string{ts.URL}, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.JobSpec{Key: "bad-rate", Kind: PointJobKind, Payload: payload}
	if _, err := backend.Execute([]campaign.JobSpec{spec}, campaign.ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), ErrSimParams.Error()) {
		t.Fatalf("remote err = %v, want it to carry %q", err, ErrSimParams)
	}
}
