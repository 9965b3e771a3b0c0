package cliflags

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"sldf/internal/core"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// groups registers every flag group on one fresh flag set, as a command
// with all of them would.
type groups struct {
	engine EngineFlags
	churn  ChurnFlag
	faults FaultFlags
	size   SizeFlag
	camp   CampaignFlags
}

func parse(t *testing.T, args ...string) groups {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	g := groups{
		engine: AddEngine(fs, FlowPar|FlowCold),
		churn:  AddChurn(fs),
		faults: AddFaults(fs),
		size:   AddSize(fs),
		camp:   AddCampaign(fs),
	}
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return g
}

// resolve resolves every group, returning the first error.
func (g groups) resolve() error {
	if _, err := g.engine.Resolve(); err != nil {
		return err
	}
	if _, err := g.churn.Resolve(); err != nil {
		return err
	}
	if _, err := g.faults.Resolve(); err != nil {
		return err
	}
	if _, _, err := g.size.Resolve(); err != nil {
		return err
	}
	_, _, err := g.camp.Resolve(io.Discard)
	return err
}

func TestResolveRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-engine", "warp-drive"},
		{"-churn", "bogus"},
		{"-churn", "links=2.0"},
		{"-size", "radix99"},
		{"-faults", "2"},
		{"-faultrouters", "-0.1"},
		{"-engine", "active-set", "-flowpar", "2"},
		{"-flowcold"},
		{"-engine", "reference", "-flowcold"},
	} {
		if err := parse(t, args...).resolve(); err == nil {
			t.Errorf("%v: resolved without error", args)
		}
	}
}

func TestZeroFlagsResolveEmpty(t *testing.T) {
	g := parse(t)
	if err := g.resolve(); err != nil {
		t.Fatal(err)
	}
	if spec, _ := g.faults.Resolve(); !reflect.DeepEqual(spec, topology.FaultSpec{}) {
		t.Errorf("zero fault flags resolved to %+v", spec)
	}
	if tl, _ := g.churn.Resolve(); !reflect.DeepEqual(tl, topology.FaultTimeline{}) {
		t.Errorf("empty -churn resolved to %+v", tl)
	}
	if eng, _ := g.engine.Resolve(); eng != (Engine{Kind: netsim.EngineActiveSet}) {
		t.Errorf("default engine resolved to %+v", eng)
	}
	if sldf, df, _ := g.size.Resolve(); sldf != core.Radix16SLDF() || df != core.Radix16DF() {
		t.Errorf("default size resolved to %+v / %+v", sldf, df)
	}
	opts, disk, _ := g.camp.Resolve(io.Discard)
	if !reflect.DeepEqual(opts, core.RunOptions{Jobs: 1}) || disk != nil {
		t.Errorf("default campaign flags resolved to %+v, cache %v", opts, disk)
	}
}

func TestFaultSpecFromFlags(t *testing.T) {
	if spec, err := parse(t, "-faultseed", "42").faults.Resolve(); err != nil || !spec.Empty() {
		t.Fatalf("zero fractions must stay pristine, got %+v, %v", spec, err)
	}
	spec, err := parse(t, "-faults", "0.05", "-faultrouters", "0.02", "-faultseed", "7").faults.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Empty() || spec.Seed != 7 || spec.LinkFraction != 0.05 || spec.RouterFraction != 0.02 {
		t.Fatalf("flags not mapped: %+v", spec)
	}
}

func TestEngineFlowKnobs(t *testing.T) {
	eng, err := parse(t, "-engine", "flow", "-flowpar", "2", "-flowcold").engine.Resolve()
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
