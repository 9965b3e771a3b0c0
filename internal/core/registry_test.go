package core

import (
	"strings"
	"testing"
)

// The registry declarations replaced the hand-written Fig* runners; these
// tests pin the declared structure — experiment names, figure names,
// series labels and grid sizes — to what those runners produced, so a
// refactor of the registry cannot silently drop a curve.

func TestRegistryEnumeratesPaperFigures(t *testing.T) {
	want := []string{"10", "11", "12", "13", "14", "resilience", "15", "collective", "churn"}
	got := ExperimentNames()
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry order %v, want %v", got, want)
		}
	}
	for _, name := range want {
		if _, ok := LookupExperiment(name); !ok {
			t.Fatalf("lookup %q failed", name)
		}
	}
	if _, ok := LookupExperiment("nope"); ok {
		t.Fatal("lookup of unregistered experiment succeeded")
	}
}

// figureShape pins one figure's declared structure.
type figureShape struct {
	series []string // labels in order
	points int      // rates per series (0 = don't check)
}

func TestRegistryFigureStructure(t *testing.T) {
	// Quick-scale shapes, matching the historical runners exactly.
	shapes := map[string]figureShape{
		"fig10a": {series: []string{"switch", "2d-mesh"}, points: 7},
		"fig10b": {series: []string{"switch", "2d-mesh"}, points: 6},
		"fig10c": {series: []string{"sw-based", "sw-less", "sw-less-2B"}, points: 5},
		"fig10d": {series: []string{"sw-based", "sw-less", "sw-less-2B"}, points: 4},
		"fig10e": {series: []string{"sw-based", "sw-less", "sw-less-2B"}, points: 5},
		"fig10f": {series: []string{"sw-based", "sw-less", "sw-less-2B"}, points: 5},
		"fig11a": {series: []string{"sw-based", "sw-less", "sw-less-2B"}, points: 5},
		"fig11b": {series: []string{"sw-based", "sw-less", "sw-less-2B"}, points: 3},
		"fig12a": {series: []string{"sw-based", "sw-less", "sw-less-2B"}, points: 3},
		"fig12b": {series: []string{"sw-based", "sw-less", "sw-less-2B", "sw-less-4B"}, points: 3},
		"fig13a": {series: []string{"sw-based", "sw-less", "sw-based-mis", "sw-less-mis", "sw-less-2B-mis"}, points: 5},
		"fig13b": {series: []string{"sw-based", "sw-less", "sw-based-mis", "sw-less-mis", "sw-less-2B-mis"}, points: 5},
		"fig14a": {series: []string{"sw-based-uni", "sw-less-uni", "sw-based-bi", "sw-less-bi"}, points: 5},
		"fig14b": {series: []string{"sw-based-uni", "sw-less-uni", "sw-based-bi", "sw-less-bi", "sw-less-bi-2B"}, points: 5},
	}
	seen := map[string]bool{}
	for _, spec := range Experiments() {
		plan := spec.Plan(ScaleQuick)
		for _, f := range plan.Figures {
			shape, ok := shapes[f.Name]
			if !ok {
				continue
			}
			seen[f.Name] = true
			if len(f.Series) != len(shape.series) {
				t.Errorf("%s: %d series, want %d", f.Name, len(f.Series), len(shape.series))
				continue
			}
			for i, ss := range f.Series {
				label := ss.Label
				if label == "" {
					label = ss.Cfg.Label()
				}
				if label != shape.series[i] {
					t.Errorf("%s series %d: label %q, want %q", f.Name, i, label, shape.series[i])
				}
				if shape.points > 0 && len(ss.Rates) != shape.points {
					t.Errorf("%s/%s: %d rates, want %d", f.Name, label, len(ss.Rates), shape.points)
				}
				if ss.Pattern == "" {
					t.Errorf("%s/%s: empty pattern (spec not remote-able)", f.Name, label)
				}
			}
		}
	}
	for name := range shapes {
		if !seen[name] {
			t.Errorf("figure %s missing from the registry", name)
		}
	}
}

func TestRegistryEnergyAndResilienceStructure(t *testing.T) {
	spec15, _ := LookupExperiment("15")
	plan := spec15.Plan(ScaleQuick)
	if len(plan.Energy) != 2 || len(plan.Figures) != 0 {
		t.Fatalf("fig15 plan: %d energy, %d latency figures", len(plan.Energy), len(plan.Figures))
	}
	wantBars := []string{"sw-based", "sw-less", "sw-based-mis", "sw-less-mis"}
	for _, f := range plan.Energy {
		if !strings.HasPrefix(f.Name, "fig15") {
			t.Errorf("energy panel %q", f.Name)
		}
		if len(f.Bars) != len(wantBars) {
			t.Fatalf("%s: %d bars", f.Name, len(f.Bars))
		}
		for i, b := range f.Bars {
			if b.Label != wantBars[i] {
				t.Errorf("%s bar %d: %q, want %q", f.Name, i, b.Label, wantBars[i])
			}
		}
	}

	specR, _ := LookupExperiment("resilience")
	rplan := specR.Plan(ScaleQuick)
	if len(rplan.Resilience) != 1 {
		t.Fatalf("resilience plan: %d figures", len(rplan.Resilience))
	}
	rf := rplan.Resilience[0]
	if rf.Name != "figres" || len(rf.Series) != 3 || len(rf.Opts.Fractions) != 3 {
		t.Fatalf("figres shape: %+v", rf)
	}
}

func TestRegisterExperimentValidation(t *testing.T) {
	mustPanic := func(name string, spec ExperimentSpec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		RegisterExperiment(spec)
	}
	mustPanic("empty", ExperimentSpec{})
	mustPanic("duplicate", ExperimentSpec{Name: "10",
		Plan: func(Scale) ExperimentPlan { return ExperimentPlan{} }})
}
