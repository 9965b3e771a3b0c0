package core

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sldf/internal/campaign"
	"sldf/internal/campaign/remote"
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
	local, err := Sweep(cfg, "uniform", []float64{0.5}, tinySim())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts[0], local.Points[0]) {
		t.Fatalf("remote point %+v differs from local %+v", pts[0], local.Points[0])
	}
}
