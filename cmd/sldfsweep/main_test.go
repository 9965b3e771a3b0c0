package main

import (
	"testing"

	"sldf/internal/core"
	"sldf/internal/routing"
)

func TestParseSystem(t *testing.T) {
	cases := []struct {
		name  string
		kind  core.SystemKind
		mode  routing.Mode
		width int32
	}{
		{"sw-based", core.SwitchDragonfly, routing.Minimal, 0},
		{"sw-based-mis", core.SwitchDragonfly, routing.Valiant, 0},
		{"sw-less", core.SwitchlessDragonfly, routing.Minimal, 1},
		{"sw-less-2B", core.SwitchlessDragonfly, routing.Minimal, 2},
		{"sw-less-4B", core.SwitchlessDragonfly, routing.Minimal, 4},
		{"sw-less-mis", core.SwitchlessDragonfly, routing.Valiant, 1},
		{"sw-less-2B-mis", core.SwitchlessDragonfly, routing.Valiant, 2},
		{"sw-less-mis-lower", core.SwitchlessDragonfly, routing.ValiantLower, 1},
		{"sw-less-ugal", core.SwitchlessDragonfly, routing.Adaptive, 1},
		{"switch", core.SingleSwitch, routing.Minimal, 0},
		{"mesh", core.MeshCGroup, routing.Minimal, 0},
	}
	for _, c := range cases {
		cfg, err := parseSystem(c.name, core.Radix16SLDF(), core.Radix16DF(), 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cfg.Kind != c.kind || cfg.Mode != c.mode {
			t.Fatalf("%s: kind=%v mode=%v", c.name, cfg.Kind, cfg.Mode)
		}
		if c.width != 0 && cfg.IntraWidth != c.width {
			t.Fatalf("%s: width=%d want %d", c.name, cfg.IntraWidth, c.width)
		}
	}
}

func TestParseSystemRejectsUnknown(t *testing.T) {
	for _, bad := range []string{"nope", "sw-less-9B", "sw-based-x"} {
		if _, err := parseSystem(bad, core.Radix16SLDF(), core.Radix16DF(), 0); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestParseSystemSizes(t *testing.T) {
	for _, size := range []string{"radix16", "radix24", "radix32", "radix56"} {
		sldf, df, err := core.ParseSize(size)
		if err != nil {
			t.Fatalf("%s: %v", size, err)
		}
		less, err := parseSystem("sw-less", sldf, df, 0)
		if err != nil || less.SLDF != sldf {
			t.Fatalf("sw-less %s: SLDF params not set: %+v, %v", size, less.SLDF, err)
		}
		based, err := parseSystem("sw-based", sldf, df, 0)
		if err != nil || based.DF != df {
			t.Fatalf("sw-based %s: DF params not set: %+v, %v", size, based.DF, err)
		}
	}
}

func TestParseSystemGroupsOverride(t *testing.T) {
	cfg, err := parseSystem("sw-less", core.Radix16SLDF(), core.Radix16DF(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SLDF.G != 1 {
		t.Fatalf("groups override ignored: %d", cfg.SLDF.G)
	}
}
