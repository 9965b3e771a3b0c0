package core

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sldf/internal/campaign"
	"sldf/internal/campaign/remote"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		name string
		want SystemKind
		ok   bool
	}{
		{"sw-based", SwitchDragonfly, true},
		{"sw-less", SwitchlessDragonfly, true},
		{"switch", SingleSwitch, true},
		{"2d-mesh", MeshCGroup, true},
		{"mesh", MeshCGroup, true},
		{"warp", 0, false},
		{"", 0, false},
		{"SW-LESS", 0, false},
		{"sw-less-mis", 0, false},
		{"unknown", 0, false},
	} {
		got, err := ParseKind(tc.name)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseKind(%q) = %v, %v; want %v (ok=%v)", tc.name, got, err, tc.want, tc.ok)
		}
	}
	// Every table kind round-trips through its name.
	for k := range kinds {
		kind := SystemKind(k)
		if got, err := ParseKind(kind.String()); err != nil || got != kind {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", kind, got, err, kind)
		}
	}
}

// TestParseSystem is the system-name grammar's table: every kind × variant
// that validates round-trips through its label, names parse to the variant
// they spell, and names of a variant the kind does not implement are
// rejected with the kind and the suffix named.
func TestParseSystem(t *testing.T) {
	valid := 0
	for k := range kinds {
		for _, width := range []int32{0, 1, 2, 4} {
			for _, mode := range []routing.Mode{routing.Minimal, routing.Valiant, routing.ValiantLower, routing.Adaptive} {
				for _, scheme := range []routing.Scheme{routing.BaselineVC, routing.ReducedVC} {
					c := Config{Kind: SystemKind(k), IntraWidth: width, Mode: mode, Scheme: scheme}
					if c.validate() != nil {
						continue
					}
					valid++
					got, err := ParseSystem(c.Label())
					if err != nil || got.Label() != c.Label() {
						t.Errorf("ParseSystem(%q) = %+v, %v; want label %q", c.Label(), got, err, c.Label())
					}
				}
			}
		}
	}
	// sw-based: 1B×{minimal, mis}×2 widths; sw-less: 4 widths × 4 modes ×
	// 2 schemes; switch and 2d-mesh: the default at width 0 and 1.
	if valid != 4+32+2+2 {
		t.Errorf("%d valid configurations, want 40", valid)
	}

	for _, tc := range []struct {
		name string
		want Config
	}{
		{"sw-based", Config{Kind: SwitchDragonfly}},
		{"sw-based-mis", Config{Kind: SwitchDragonfly, Mode: routing.Valiant}},
		{"sw-less", Config{Kind: SwitchlessDragonfly}},
		{"sw-less-4B", Config{Kind: SwitchlessDragonfly, IntraWidth: 4}},
		{"sw-less-2B-mis", Config{Kind: SwitchlessDragonfly, IntraWidth: 2, Mode: routing.Valiant}},
		{"sw-less-mis-lower", Config{Kind: SwitchlessDragonfly, Mode: routing.ValiantLower}},
		{"sw-less-mis-lower-rvc", Config{Kind: SwitchlessDragonfly, Mode: routing.ValiantLower, Scheme: routing.ReducedVC}},
		{"sw-less-ugal", Config{Kind: SwitchlessDragonfly, Mode: routing.Adaptive}},
		{"sw-less-2B-mis-rvc", Config{Kind: SwitchlessDragonfly, IntraWidth: 2, Mode: routing.Valiant, Scheme: routing.ReducedVC}},
		{"switch", Config{Kind: SingleSwitch}},
		{"mesh", Config{Kind: MeshCGroup}},
		{"2d-mesh", Config{Kind: MeshCGroup}},
	} {
		if got, err := ParseSystem(tc.name); err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSystem(%q) = %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}

	for _, tc := range []struct{ name, err string }{
		{"sw-based-ugal", "sw-based does not implement -ugal"},
		{"sw-based-mis-lower", "sw-based does not implement -mis-lower"},
		{"sw-based-rvc", "sw-based does not implement -rvc"},
		{"sw-based-2B", "sw-based does not implement -2B"},
		{"mesh-mis", "2d-mesh does not implement -mis"},
		{"mesh-2B", "2d-mesh does not implement -2B"},
		{"switch-ugal", "switch does not implement -ugal"},
		{"nope", "unknown system"},
		{"", "unknown system"},
		{"sw-less-9B", "unknown system"},
		{"sw-based-x", "unknown system"},
		{"sw-less-rvc-mis", "unknown system"}, // suffixes out of order
		{"sw-less-1B", "unknown system"},      // 1B is the default, unnamed
	} {
		if _, err := ParseSystem(tc.name); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("ParseSystem(%q) error = %v, want one containing %q", tc.name, err, tc.err)
		}
	}
}

// TestCacheIDOneKeyPerNetwork pins a registry key string and checks that
// two configurations building the same network share it.
func TestCacheIDOneKeyPerNetwork(t *testing.T) {
	swl := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: seed}
	const want = "kind=1 df={P:0 A:0 H:0 G:0} sldf={NoCDim:2 ChipCols:2 ChipRows:2 AB:8 H:5 G:0 Layout:0} " +
		"term=0 chiplet=0 noc=0 scheme=0 mode=0 width=0 seed=0x5eedf00d"
	if got := swl.cacheID(); got != want {
		t.Fatalf("registry sw-less key changed:\n got %s\nwant %s", got, want)
	}
	width1 := swl
	width1.IntraWidth = 1
	lower, lowerRVC := swl, swl
	lower.Mode, lowerRVC.Mode = routing.ValiantLower, routing.ValiantLower
	lowerRVC.Scheme = routing.ReducedVC
	for _, pair := range [][2]Config{{swl, width1}, {lower, lowerRVC}} {
		if a, b := pair[0].cacheID(), pair[1].cacheID(); a != b {
			t.Errorf("one network, two keys:\n%s\n%s", a, b)
		}
	}
}

// TestUnknownKindRejected pins the contract for kinds outside the table
// (e.g. decoded from a remote job payload): names and labels degrade to
// "unknown" and Build returns an error instead of panicking, pristine or
// faulted.
func TestUnknownKindRejected(t *testing.T) {
	for _, kind := range []SystemKind{SystemKind(len(kinds)), 200, 255} {
		if got := kind.String(); got != "unknown" {
			t.Errorf("SystemKind(%d).String() = %q, want unknown", kind, got)
		}
		for _, faults := range []topology.FaultSpec{{}, {Seed: 1, LinkFraction: 0.1}} {
			cfg := Config{Kind: kind, Seed: 1, Faults: faults}
			if got := cfg.Label(); got != "unknown" {
				t.Errorf("kind %d: Label() = %q, want unknown", kind, got)
			}
			sys, err := Build(cfg)
			if err == nil {
				sys.Close()
				t.Fatalf("kind %d (faults %+v): Build succeeded", kind, faults)
			}
			if !strings.Contains(err.Error(), "unknown system kind") {
				t.Errorf("kind %d: error %q does not name the kind", kind, err)
			}
		}
	}
}

// TestRemoteServerRejectsUnknownKind sends a point spec with a kind outside
// the table to a worker daemon: the job fails with an error, and the same
// server then still measures a valid point bit-identically to a local run.
func TestRemoteServerRejectsUnknownKind(t *testing.T) {
	srv := remote.NewServer(remote.ServerOptions{Jobs: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	backend, err := remote.New([]string{ts.URL}, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}

	bad, err := PointJob(Config{Kind: 200, Seed: 1}, "uniform", 0.5, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backend.Execute([]campaign.JobSpec{bad}, campaign.ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "unknown system kind") {
		t.Fatalf("unknown-kind job: err = %v, want a job error naming the kind", err)
	}

	cfg := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1, Workers: 1}
	good, err := PointJob(cfg, "uniform", 0.5, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := backend.Execute([]campaign.JobSpec{good}, campaign.ExecOptions{})
	if err != nil {
		t.Fatalf("server stopped serving after a bad job: %v", err)
	}
	local, err := runSeries(cfg, "uniform", []float64{0.5}, tinySim(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts[0], local.Points[0]) {
		t.Fatalf("remote point %+v differs from local %+v", pts[0], local.Points[0])
	}
}
