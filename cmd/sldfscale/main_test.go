package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunHelp(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-h"}, &out, &errOut); err != nil {
		t.Fatalf("-h must succeed, got %v", err)
	}
	if !strings.Contains(errOut.String(), "Usage of sldfscale") {
		t.Errorf("-h did not print usage on the error writer:\n%s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("-h wrote to the data stream: %q", out.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-dim", "nope"}, `unknown -dim "nope"`},
		{[]string{"-kind", "warp"}, "warp"},
		{[]string{"-dim", "faults", "-engine", "flow"}, "-engine applies to -dim chips only"},
		{[]string{"-no-such-flag"}, "usage error"},
		{[]string{"-kind", "switch", "-workers", "-3", "-max-steps", "1", "-q"}, "-workers -3"},
		{[]string{"-kind", "switch", "-max-steps", "-3", "-q"}, "-max-steps -3"},
		{[]string{"-kind", "switch", "-max-steps", "2", "-max-step-wall", "-1s", "-q"}, "-max-step-wall -1s"},
		{[]string{"-kind", "switch", "-max-steps", "2", "-max-rss-gb", "-1", "-q"}, "-max-rss-gb -1"},
		{[]string{"-kind", "switch", "-max-steps", "2", "-max-rss-gb", "NaN", "-q"}, "-max-rss-gb NaN"},
	}
	for _, tc := range cases {
		var out strings.Builder
		err := run(tc.args, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote a report: %q", tc.args, out.String())
		}
	}
}

// TestRunOneStepLadder climbs one rung of the 2D-mesh chip ladder and
// reads the ceiling line; progress lines go to the error writer.
func TestRunOneStepLadder(t *testing.T) {
	var out, errOut strings.Builder
	err := run([]string{"-dim", "chips", "-kind", "2d-mesh", "-max-steps", "1", "-min-ceiling", "4"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("report has %d lines, want 3:\n%s", len(lines), out.String())
	}
	if want := "chips/2d-mesh: ceiling mesh2x2 (value 4) — stopped by max-steps after 1 steps"; lines[0] != want {
		t.Errorf("ceiling line %q, want %q", lines[0], want)
	}
	if !strings.HasPrefix(lines[1], "  build ") || !strings.Contains(lines[1], "heap bytes/chip") {
		t.Errorf("footprint line %q", lines[1])
	}
	if lines[2] != "ceiling gate passed: 4 >= 4" {
		t.Errorf("gate line %q", lines[2])
	}
	if !strings.HasPrefix(errOut.String(), "chips/2d-mesh mesh2x2: ok") {
		t.Errorf("progress line %q", errOut.String())
	}
}

// TestRunFailingGate: a ceiling below -min-ceiling is an error after the
// report is written.
func TestRunFailingGate(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-dim", "chips", "-kind", "2d-mesh", "-max-steps", "1", "-min-ceiling", "5", "-q"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "ceiling gate failed: 4 < 5") {
		t.Fatalf("err = %v, want the ceiling gate failure", err)
	}
	if !strings.HasPrefix(out.String(), "chips/2d-mesh: ceiling mesh2x2 (value 4)") {
		t.Errorf("report %q", out.String())
	}
}
