package cliflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"sldf/internal/core"
	"sldf/internal/netsim"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

// groups registers every flag group on one fresh flag set, as a command
// with all of them would; the point group holds the fault, churn and
// engine groups.
type groups struct {
	point PointFlags
	camp  CampaignFlags
}

func parse(t *testing.T, args ...string) groups {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	g := groups{point: AddPoint(fs), camp: AddCampaign(fs)}
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return g
}

// resolve resolves every group, returning the first error.
func (g groups) resolve() error {
	if _, err := g.point.Resolve(); err != nil {
		return err
	}
	_, _, err := g.camp.Resolve(io.Discard)
	return err
}

// TestResolveRejectsBadInput checks that every bad value is an error; when
// flag is set, the error must name it.
func TestResolveRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{args: []string{"-engine", "warp-drive"}},
		{args: []string{"-churn", "bogus"}},
		{args: []string{"-churn", "links=2.0"}},
		{args: []string{"-size", "radix99"}},
		{args: []string{"-faults", "2"}},
		{args: []string{"-faultrouters", "-0.1"}},
		{args: []string{"-engine", "active-set", "-flowpar", "2"}},
		{args: []string{"-flowcold"}},
		{args: []string{"-engine", "reference", "-flowcold"}},
		{args: []string{"-groups", "-1"}, flag: "-groups"},
		{args: []string{"-workers", "-3"}, flag: "-workers"},
		{args: []string{"-engine", "flow", "-flowpar", "-2"}, flag: "-flowpar"},
		{args: []string{"-jobs", "0"}, flag: "-jobs"},
		{args: []string{"-jobs", "-4"}, flag: "-jobs"},
	} {
		err := parse(t, tc.args...).resolve()
		if err == nil {
			t.Errorf("%v: resolved without error", tc.args)
		} else if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: error %q does not name %s", tc.args, err, tc.flag)
		}
	}
}

func TestZeroFlagsResolveEmpty(t *testing.T) {
	g := parse(t)
	if err := g.resolve(); err != nil {
		t.Fatal(err)
	}
	if spec, _ := g.point.faults.Resolve(); !reflect.DeepEqual(spec, topology.FaultSpec{}) {
		t.Errorf("zero fault flags resolved to %+v", spec)
	}
	if tl, _ := g.point.churn.Resolve(); !reflect.DeepEqual(tl, topology.FaultTimeline{}) {
		t.Errorf("empty -churn resolved to %+v", tl)
	}
	if eng, _ := g.point.engine.Resolve(); eng != (Engine{Kind: netsim.EngineActiveSet}) {
		t.Errorf("default engine resolved to %+v", eng)
	}
	if pt, _ := g.point.Resolve(); pt.sldf != core.Radix16SLDF() || pt.df != core.Radix16DF() {
		t.Errorf("default size resolved to %+v / %+v", pt.sldf, pt.df)
	}
	opts, disk, _ := g.camp.Resolve(io.Discard)
	if !reflect.DeepEqual(opts, core.RunOptions{Jobs: 1}) || disk != nil {
		t.Errorf("default campaign flags resolved to %+v, cache %v", opts, disk)
	}
}

func TestFaultSpecFromFlags(t *testing.T) {
	if spec, err := parse(t, "-faultseed", "42").point.faults.Resolve(); err != nil || !spec.Empty() {
		t.Fatalf("zero fractions must stay pristine, got %+v, %v", spec, err)
	}
	spec, err := parse(t, "-faults", "0.05", "-faultrouters", "0.02", "-faultseed", "7").point.faults.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Empty() || spec.Seed != 7 || spec.LinkFraction != 0.05 || spec.RouterFraction != 0.02 {
		t.Fatalf("flags not mapped: %+v", spec)
	}
}

func TestEngineFlowKnobs(t *testing.T) {
	eng, err := parse(t, "-engine", "flow", "-flowpar", "2", "-flowcold").point.engine.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sp := core.QuickSim()
	eng.Apply(&sp)
	if sp.Engine != netsim.EngineFlow || sp.FlowWorkers != 2 || !sp.FlowCold {
		t.Fatalf("flow knobs not applied: %+v", sp)
	}

	// A command that registers no flow flags rejects them at parse time.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	AddEngine(fs, 0)
	if err := fs.Parse([]string{"-flowpar", "2"}); err == nil {
		t.Fatal("-flowpar parsed on a set that never registered it")
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
		err  error
	}{
		{nil, true, nil},
		{[]string{"-h"}, false, nil},
		{[]string{"-no-such-flag"}, false, ErrUsage},
		{[]string{"-seed", "x"}, false, ErrUsage},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		AddPoint(fs)
		if ok, err := Parse(fs, tc.args); ok != tc.ok || err != tc.err {
			t.Errorf("Parse(%v) = %v, %v; want %v, %v", tc.args, ok, err, tc.ok, tc.err)
		}
	}
}

func TestPointConfig(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	point := AddPoint(fs)
	if err := fs.Parse([]string{"-size", "radix24", "-groups", "1", "-measure", "300", "-seed", "9",
		"-workers", "2", "-faults", "0.05", "-engine", "flow", "-flowpar", "2"}); err != nil {
		t.Fatal(err)
	}
	pt, err := point.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := core.SimParams{Warmup: 5000, Measure: 300, ExtraDrain: 150, PacketSize: 4,
		Engine: netsim.EngineFlow, FlowWorkers: 2}
	if pt.Sim != want || pt.Pattern != "uniform" {
		t.Errorf("window %+v pattern %q, want %+v uniform", pt.Sim, pt.Pattern, want)
	}
	less, err := pt.Config("sw-less-2B-mis")
	if err != nil {
		t.Fatal(err)
	}
	wantSLDF := core.Radix24SLDF()
	wantSLDF.G = 1
	if less.SLDF != wantSLDF || less.IntraWidth != 2 || less.Mode != routing.Valiant ||
		less.Seed != 9 || less.Workers != 2 || less.Faults.LinkFraction != 0.05 {
		t.Errorf("sw-less-2B-mis resolved to %+v", less)
	}
	based, err := pt.Config("sw-based")
	if err != nil || based.DF.P != core.Radix24DF().P || based.DF.G != 1 {
		t.Errorf("sw-based resolved to %+v, %v", based.DF, err)
	}
	if mesh, err := pt.Config("mesh"); err != nil || mesh.ChipletDim != 2 || mesh.NoCDim != 2 {
		t.Errorf("mesh resolved to %+v, %v", mesh, err)
	}
	if sw, err := pt.Config("switch"); err != nil || sw.Terminals != 4 {
		t.Errorf("switch resolved to %+v, %v", sw, err)
	}
	if _, err := pt.Config("sw-based-ugal"); err == nil {
		t.Error("sw-based-ugal resolved")
	}
}

func TestPointConfigSizes(t *testing.T) {
	for _, size := range []string{"radix16", "radix24", "radix32", "radix56"} {
		sldf, df, err := core.ParseSize(size)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := parse(t, "-size", size).point.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if less, err := pt.Config("sw-less"); err != nil || less.SLDF != sldf {
			t.Errorf("sw-less %s: SLDF params %+v, %v", size, less.SLDF, err)
		}
		if based, err := pt.Config("sw-based"); err != nil || based.DF != df {
			t.Errorf("sw-based %s: DF params %+v, %v", size, based.DF, err)
		}
	}
}
