package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sldf/internal/cliflags"
	"sldf/internal/core"
)

// tiny is a load point cheap enough for unit tests.
var tiny = []string{"-rate", "0.2", "-warmup", "50", "-measure", "100", "-workers", "1"}

// TestRunMatchesGolden pins the report of a tiny point per system. The
// goldens were captured with the -system/-mode/-scheme/-width switches the
// grammar names replaced, so each name must build the same network. The
// Dragonfly pair runs all 41 W-groups, where Valiant routing differs from
// minimal.
func TestRunMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"sw-less-2B-mis-rvc", []string{"-system", "sw-less-2B-mis-rvc"}},
		{"sw-based-mis", []string{"-system", "sw-based-mis"}},
		{"2d-mesh", []string{"-system", "2d-mesh"}},
		{"sw-less-churn", []string{"-system", "sw-less", "-groups", "1",
			"-churn", "links=0.02,seed=7,start=60,end=140,repair=30,policy=retry"}},
		// Rings: the snake order on the mesh, the chip ID order on a
		// switch-less W-group.
		{"2d-mesh-ring-bidir", []string{"-system", "2d-mesh", "-pattern", "ring-bidir"}},
		{"sw-less-ring-bidir", []string{"-system", "sw-less", "-groups", "1", "-pattern", "ring-bidir"}},
		{"sw-less-ring", []string{"-system", "sw-less", "-groups", "1", "-pattern", "ring"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run(append(tc.args, tiny...), &out, io.Discard); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		if out.String() != string(want) {
			t.Errorf("%s: report differs from the golden:\n got:\n%s\nwant:\n%s", tc.golden, out.String(), want)
		}
	}
}

// TestPrintKeyMatchesSweepStore checks that -printkey names the key a sweep
// stores for the same point: the sweep resolves the same flags through the
// same point group, measures the one rate into a disk cache, and the cache
// entry records its key.
func TestPrintKeyMatchesSweepStore(t *testing.T) {
	for _, name := range []string{"sw-based", "sw-less", "2d-mesh"} {
		var out strings.Builder
		if err := run(append([]string{"-system", name, "-groups", "1", "-printkey"}, tiny...), &out, io.Discard); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var printed string
		for _, line := range strings.Split(out.String(), "\n") {
			if key, ok := strings.CutPrefix(line, "job key  : "); ok {
				printed = key
			}
		}
		if printed == "" {
			t.Fatalf("%s: no job key line in:\n%s", name, out.String())
		}

		dir := t.TempDir()
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		point, camp := cliflags.AddPoint(fs), cliflags.AddCampaign(fs)
		sweepArgs := []string{"-groups", "1", "-warmup", "50", "-measure", "100", "-workers", "1", "-cache", dir}
		if err := fs.Parse(sweepArgs); err != nil {
			t.Fatal(err)
		}
		pt, err := point.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := pt.Config(name)
		if err != nil {
			t.Fatal(err)
		}
		opts, _, err := camp.Resolve(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		plan := core.ExperimentPlan{Figures: []core.FigureSpec{{Name: "sweep", Series: []core.SeriesSpec{
			{Cfg: cfg, Pattern: pt.Pattern, Rates: []float64{0.2}, Sim: pt.Sim}}}}}
		if _, err := core.RunPlan(plan, opts); err != nil {
			t.Fatal(err)
		}
		entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(entries) != 1 {
			t.Fatalf("%s: want one cache entry, got %v (%v)", name, entries, err)
		}
		data, err := os.ReadFile(entries[0])
		if err != nil {
			t.Fatal(err)
		}
		var entry struct{ Key string }
		if err := json.Unmarshal(data, &entry); err != nil {
			t.Fatal(err)
		}
		if entry.Key != printed {
			t.Errorf("%s: -printkey\n  %s\nsweep stored\n  %s", name, printed, entry.Key)
		}
	}
}

func TestRunHelp(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-h"}, &out, &errOut); err != nil {
		t.Fatalf("-h must succeed, got %v", err)
	}
	if !strings.Contains(errOut.String(), "Usage of slsim") {
		t.Errorf("-h did not print usage on the error writer:\n%s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("-h wrote to the data stream: %q", out.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  string
	}{
		{[]string{"-mode", "valiant"}, "usage error"},
		{[]string{"-width", "2"}, "usage error"},
		{[]string{"-system", "switch-ugal"}, "switch does not implement -ugal"},
		{[]string{"-system", "warp"}, "unknown system"},
		{[]string{"-system", "mesh", "-measure", "0"}, "invalid simulation parameters"},
		{[]string{"-system", "mesh", "-rate", "nan"}, "invalid simulation parameters"},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.err)
		}
	}
}
