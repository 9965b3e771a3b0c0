package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sldf/internal/core"
)

// A tiny single-W-group resilience experiment (32 chips, one seed, two
// fractions) so the -churn path can be validated end to end without the
// registered 1312-chip resilience figure's cost.
func init() {
	cfg := core.Config{Kind: core.SwitchlessDragonfly, SLDF: core.Radix16SLDF(), Seed: 5}
	cfg.SLDF.G = 1
	core.RegisterExperiment(core.ExperimentSpec{
		Name:  "figtest-res",
		Title: "test-only tiny resilience figure",
		Plan: func(core.Scale) core.ExperimentPlan {
			return core.ExperimentPlan{Resilience: []core.ResilienceFigureSpec{{
				Name: "figtest-res", Title: "tiny resilience",
				Opts: core.ResilienceOpts{
					Fractions: []float64{0, 0.05},
					Seeds:     []uint64{1},
					Pattern:   "uniform",
					Rate:      0.2,
					Sim:       core.QuickSim(),
				},
				Series: []core.ResilienceSeriesSpec{{Cfg: cfg}},
			}}}
		},
	})
}

func TestRunHelp(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-h"}, &out, &errOut); err != nil {
		t.Fatalf("-h must succeed, got %v", err)
	}
	if !strings.Contains(errOut.String(), "Usage of sldffigures") {
		t.Errorf("-h did not print usage on the error writer:\n%s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("-h wrote to the data stream: %q", out.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-fig", "9"}, // 9 is the layout study (sldftables), not a sweep figure
		{"-fig", "nope"},
		{"-no-such-flag"},
		{"-jobs", "x"},
		{"-churn", "links=2.0"},   // fraction outside [0, 1]
		{"-churn", "bogus"},       // not key=value
		{"-engine", "warp-drive"}, // unknown engine
	}
	for _, args := range cases {
		var buf strings.Builder
		if err := run(args, &buf, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunChurnFlag validates the -churn flag end to end: a churn-degraded
// resilience figure runs through the registry runner, lands on disk, and
// the timeline measurably changes the figure relative to a churn-free run.
func TestRunChurnFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	runOne := func(dir string, extra ...string) string {
		t.Helper()
		args := append([]string{"-quick", "-fig", "figtest-res", "-out", dir}, extra...)
		var buf strings.Builder
		if err := run(args, &buf, io.Discard); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		if !strings.Contains(buf.String(), "== figtest-res") {
			t.Fatalf("summary missing the figure:\n%s", buf.String())
		}
		data, err := os.ReadFile(filepath.Join(dir, "figtest-res.csv"))
		if err != nil {
			t.Fatalf("CSV not written: %v", err)
		}
		if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) < 2 {
			t.Fatalf("figtest-res.csv has no data rows:\n%s", data)
		}
		return string(data)
	}
	clean := runOne(t.TempDir())
	churned := runOne(t.TempDir(),
		"-churn", "links=0.08,seed=3,start=100,end=400,repair=200,policy=drop")
	if clean == churned {
		t.Fatalf("-churn changed nothing; the timeline never reached the sweep:\n%s", churned)
	}
}

// TestRunResilienceCacheReplay: a resilience figure's fault draws go
// through the point cache, so a warm rerun replays every draw (the
// infeasible and deadlocked outcomes included), writes the same CSV and
// reports the same draw counts per fraction.
func TestRunResilienceCacheReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	cache := t.TempDir()
	runOne := func() (csv, stdout, stderr string) {
		t.Helper()
		dir := t.TempDir()
		var out, errw strings.Builder
		if err := run([]string{"-quick", "-fig", "figtest-res", "-out", dir, "-jobs", "2", "-cache", cache},
			&out, &errw); err != nil {
			t.Fatalf("run: %v", err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "figtest-res.csv"))
		if err != nil {
			t.Fatalf("CSV not written: %v", err)
		}
		return string(data), out.String(), errw.String()
	}
	cold, coldOut, coldErr := runOne()
	warm, warmOut, warmErr := runOne()
	if warm != cold {
		t.Fatalf("warm replay CSV differs:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if !strings.Contains(coldErr, "cache: 0 hits, 2 misses") || !strings.Contains(warmErr, "cache: 2 hits, 0 misses") {
		t.Fatalf("cache lines: cold %q, warm %q; want both draws measured, then replayed", coldErr, warmErr)
	}
	draws := func(out string) string {
		_, after, ok := strings.Cut(out, "fault draws per fraction (clean/infeasible/deadlocked of seeds):\n")
		line, _, _ := strings.Cut(after, "\n")
		if !ok || !strings.Contains(line, " 0: 1/0/0 of 1  0.05: ") {
			t.Fatalf("summary does not report the draws per fraction:\n%s", out)
		}
		return line
	}
	if c, w := draws(coldOut), draws(warmOut); c != w {
		t.Fatalf("draw counts differ on replay: cold %q, warm %q", c, w)
	}
}

func TestRunQuickFig14(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	var buf strings.Builder
	if err := run([]string{"-quick", "-fig", "14", "-out", dir, "-jobs", "4"}, &buf, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"== fig14a — AllReduce: Intra-C-group",
		"== fig14b — AllReduce: Intra-W-group",
		"saturation ≈",
		"-- fig 14 done in",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q in:\n%s", want, out)
		}
	}
	for _, name := range []string{"fig14a.csv", "fig14b.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("CSV not written: %v", err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s: no data rows", name)
		}
		if !strings.HasPrefix(lines[0], "rate,") {
			t.Errorf("%s: unexpected header %q", name, lines[0])
		}
	}
}

// TestRunQuickChurnPanel checks that the churn registry panel reaches disk:
// -quick -fig churn writes figchurn.csv byte-identical to the quick plan
// run through core.RunChurnFigure, and summarizes one line per case.
func TestRunQuickChurnPanel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	var buf strings.Builder
	if err := run([]string{"-quick", "-fig", "churn", "-out", dir}, &buf, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "figchurn.csv"))
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	spec, ok := core.LookupExperiment("churn")
	if !ok {
		t.Fatal("churn experiment not registered")
	}
	plan := spec.Plan(core.ScaleQuick)
	if len(plan.Churn) != 1 {
		t.Fatalf("quick churn plan has %d panels, want 1", len(plan.Churn))
	}
	want, err := core.RunChurnFigure(plan.Churn[0], core.RunOptions{})
	if err != nil {
		t.Fatalf("RunChurnFigure: %v", err)
	}
	if string(got) != want.CSV() {
		t.Fatalf("figchurn.csv differs from RunChurnFigure:\ngot:\n%s\nwant:\n%s", got, want.CSV())
	}
	out := buf.String()
	if !strings.Contains(out, "== figchurn") {
		t.Errorf("summary missing the panel:\n%s", out)
	}
	for _, r := range want.Rows {
		if !strings.Contains(out, r.System) {
			t.Errorf("summary missing case %s:\n%s", r.System, out)
		}
	}
}
