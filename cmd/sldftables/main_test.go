package main

import (
	"io"
	"regexp"
	"strings"
	"testing"
)

func TestRunAllTables(t *testing.T) {
	var buf strings.Builder
	if err := run(nil, &buf, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"TABLE I — external communication",
		"TABLE II — hop cost comparison",
		"TABLE III — comparison of key specifications",
		"TABLE IV — default simulation parameters",
		"FIG. 9 — C-group layout feasibility",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunTableFilter(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-table", "3"}, &buf, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "TABLE III") {
		t.Error("-table 3 did not print Table III")
	}
	for _, absent := range []string{"TABLE I —", "TABLE II —", "TABLE IV", "FIG. 9"} {
		if strings.Contains(out, absent) {
			t.Errorf("-table 3 leaked %q", absent)
		}
	}
	// Formatting: the Slingshot comparison line carries the headline claim.
	if !strings.Contains(out, "inter-cabinet cable ratio") {
		t.Error("Table III summary line missing")
	}
}

func TestRunFig9Only(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-table", "4", "-fig", "9"}, &buf, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "FIG. 9") || !strings.Contains(out, "TABLE IV") {
		t.Errorf("-table 4 -fig 9 output incomplete:\n%s", out)
	}
	if !strings.Contains(out, "differential pairs") {
		t.Error("layout report rows missing")
	}
}

func TestRunTableIVFormatting(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-table", "4"}, &buf, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"packet length            4 flits",
		"input buffer size        32 flits",
		"10000 cycles after 5000 warmup",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table IV row %q missing in:\n%s", want, out)
		}
	}
}

func TestRunHelp(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-h"}, &out, &errOut); err != nil {
		t.Fatalf("-h must succeed, got %v", err)
	}
	if !strings.Contains(errOut.String(), "Usage of sldftables") {
		t.Errorf("-h did not print usage on the error writer:\n%s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("-h wrote to the data stream: %q", out.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-table", "7"},
		{"-fig", "8"},
		{"-no-such-flag"},
		{"-jobs", "not-a-number"},
	}
	for _, args := range cases {
		var buf strings.Builder
		if err := run(args, &buf, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunSaturationSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated saturation summary is slow")
	}
	var buf strings.Builder
	if err := run([]string{"-table", "4", "-sat", "-jobs", "8"}, &buf, io.Discard); err != nil {
		t.Fatalf("run -sat: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "SATURATION — single W-group") {
		t.Fatal("saturation header missing")
	}
	for _, sys := range []string{"sw-based", "sw-less", "sw-less-2B"} {
		if !strings.Contains(out, sys) {
			t.Errorf("saturation row for %s missing", sys)
		}
	}
}

func TestRunExperimentRegistry(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-table", "1", "-experiments"}, &buf, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"EXPERIMENT REGISTRY",
		"fig10a", "fig11b", "fig12a", "fig13b", "fig14b", "fig15a", "figres", "figchurn",
		"sw-less-2B", "sw-less-bi-2B", "sw-less-mis",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry listing missing %q in:\n%s", want, out)
		}
	}
	// The churn panel lists its cases like a collective panel.
	if !regexp.MustCompile(`(?m)^  figchurn .* [1-9]\d* cases: [1-9]\d* systems × [1-9]\d* schedules$`).MatchString(out) {
		t.Errorf("registry listing has no figchurn case line in:\n%s", out)
	}
}
