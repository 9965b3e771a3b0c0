package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"sldf/internal/cliflags"
	"sldf/internal/core"
	"sldf/internal/routing"
)

// defaultPoint resolves the point group at its flag defaults.
func defaultPoint(t *testing.T) cliflags.Point {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	point := cliflags.AddPoint(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	pt, err := point.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// TestParseSystem checks that each -systems name resolves, through the
// point group the command uses, to the kind, routing mode and intra-C-group
// width it spells. Width 0 is the 1B default, the same network as width 1.
func TestParseSystem(t *testing.T) {
	cases := []struct {
		name  string
		kind  core.SystemKind
		mode  routing.Mode
		width int32
	}{
		{"sw-based", core.SwitchDragonfly, routing.Minimal, 0},
		{"sw-based-mis", core.SwitchDragonfly, routing.Valiant, 0},
		{"sw-less", core.SwitchlessDragonfly, routing.Minimal, 0},
		{"sw-less-2B", core.SwitchlessDragonfly, routing.Minimal, 2},
		{"sw-less-4B", core.SwitchlessDragonfly, routing.Minimal, 4},
		{"sw-less-mis", core.SwitchlessDragonfly, routing.Valiant, 0},
		{"sw-less-2B-mis", core.SwitchlessDragonfly, routing.Valiant, 2},
		{"sw-less-mis-lower", core.SwitchlessDragonfly, routing.ValiantLower, 0},
		{"sw-less-ugal", core.SwitchlessDragonfly, routing.Adaptive, 0},
		{"switch", core.SingleSwitch, routing.Minimal, 0},
		{"mesh", core.MeshCGroup, routing.Minimal, 0},
	}
	pt := defaultPoint(t)
	for _, c := range cases {
		cfg, err := pt.Config(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cfg.Kind != c.kind || cfg.Mode != c.mode || cfg.IntraWidth != c.width {
			t.Errorf("%s: kind=%v mode=%v width=%d, want %v %v %d",
				c.name, cfg.Kind, cfg.Mode, cfg.IntraWidth, c.kind, c.mode, c.width)
		}
	}
}

func TestParseSystemRejectsUnknown(t *testing.T) {
	pt := defaultPoint(t)
	for _, bad := range []string{"nope", "sw-less-9B", "sw-based-x"} {
		if _, err := pt.Config(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestRunHelp(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-h"}, &out, &errOut); err != nil {
		t.Fatalf("-h must succeed, got %v", err)
	}
	if !strings.Contains(errOut.String(), "sw-less[-2B|-4B][-mis|-mis-lower|-ugal][-rvc]") {
		t.Errorf("-systems help does not print the system grammar:\n%s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("-h wrote to the data stream: %q", out.String())
	}
}

// TestRunRejectsUnimplementedVariants checks that a name whose kind lacks
// the variant fails before any sweep runs, naming the kind and the suffix.
func TestRunRejectsUnimplementedVariants(t *testing.T) {
	for _, tc := range []struct{ systems, err string }{
		{"sw-based-ugal", "sw-based does not implement -ugal"},
		{"sw-less,sw-based-mis-lower", "sw-based does not implement -mis-lower"},
		{"mesh-mis", "2d-mesh does not implement -mis"},
		{"switch-ugal", "switch does not implement -ugal"},
		{"warp", "unknown system"},
	} {
		var out, errOut strings.Builder
		err := run([]string{"-systems", tc.systems, "-warmup", "10", "-measure", "20"}, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("-systems %s: err = %v, want one containing %q", tc.systems, err, tc.err)
		}
		if out.Len() != 0 || strings.Contains(errOut.String(), "sweeping") {
			t.Errorf("-systems %s: a sweep ran before the error:\n%s%s", tc.systems, out.String(), errOut.String())
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  string // a substring the error must carry ("" = any error)
	}{
		{[]string{"-no-such-flag"}, ""},
		{[]string{"-mode", "valiant"}, ""},
		{[]string{"-size", "radix99"}, ""},
		{[]string{"-engine", "warp-drive"}, ""},
		// An empty rate grid is an error, not a header-only CSV.
		{[]string{"-step", "0"}, "-from 0.1 -to 1 -step 0"},
		{[]string{"-step", "-0.1"}, "-from 0.1 -to 1 -step -0.1"},
		{[]string{"-from", "0.5", "-to", "0.2"}, "-from 0.5 -to 0.2 -step 0.1"},
	} {
		var out strings.Builder
		err := run(tc.args, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("run(%v): err = %v, want an error containing %q", tc.args, err, tc.err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote to the data stream: %q", tc.args, out.String())
		}
	}
}

// TestRunPartitionErrorNamesSystem: the systems share one fan-out, and a
// system whose faults partition the network is still named in the error.
func TestRunPartitionErrorNamesSystem(t *testing.T) {
	var out, errOut strings.Builder
	err := run([]string{"-systems", "sw-based,sw-less", "-groups", "1", "-faults", "0.6",
		"-from", "0.2", "-to", "0.2", "-warmup", "50", "-measure", "100"}, &out, &errOut)
	if err == nil || !strings.HasPrefix(err.Error(), "sweep (sw-less): ") || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("err = %v, want a partition error naming sweep (sw-less)", err)
	}
	if out.Len() != 0 {
		t.Errorf("a failed sweep wrote CSV: %q", out.String())
	}
}
