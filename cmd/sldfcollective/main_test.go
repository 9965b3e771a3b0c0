package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sldf/internal/core"
)

func TestRunHelp(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-h"}, &out, &errOut); err != nil {
		t.Fatalf("-h must succeed, got %v", err)
	}
	if !strings.Contains(errOut.String(), "Usage of sldfcollective") {
		t.Errorf("-h did not print usage on the error writer:\n%s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("-h wrote to the data stream: %q", out.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-systems", "nope"},
		{"-schedules", "nope"},
		{"-dim", "1"},
		{"-packet", "0"},
		{"-no-such-flag"},
		{"-jobs", "x"},
		{"-churn", "links=nope"},
		{"-churn", "policy=yolo"},
	}
	for _, args := range cases {
		var buf strings.Builder
		if err := run(args, &buf, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunRejectsBadCollectiveSpec: a zero or negative payload, a negative
// step bound or kill step, a kill past the schedule's last step, or a
// -killchip or -packet that does not fit in int32 fails with ErrSimParams
// instead of printing a panel: a 0-cycle row, a kill before step 0, a kill
// after the collective finished at no cost, or a wrapped chip or packet
// size. An out-of-range flag is named in the error.
func TestRunRejectsBadCollectiveSpec(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // named in the error when set
	}{
		{args: []string{"-volume", "-5"}},
		{args: []string{"-volume", "0"}},
		{args: []string{"-maxstep", "-1"}},
		{args: []string{"-killchip", "1", "-killstep", "-4"}},
		{args: []string{"-schedules", "ring", "-volume", "64", "-killchip", "1", "-killstep", "100"}},
		{args: []string{"-schedules", "ring", "-volume", "64", "-killchip", "1", "-killstep", "5"}},
		{args: []string{"-schedules", "ring", "-volume", "64", "-killchip", "4294967297", "-killstep", "2"}, flag: "-killchip"},
		{args: []string{"-schedules", "ring", "-volume", "64", "-killchip", "2147483648"}, flag: "-killchip"},
		{args: []string{"-schedules", "ring", "-volume", "64", "-packet", "4294967300"}, flag: "-packet"},
		{args: []string{"-schedules", "ring", "-volume", "64", "-packet", "2147483648"}, flag: "-packet"},
	} {
		var out strings.Builder
		err := run(append([]string{"-systems", "switch", "-dim", "2"}, tc.args...), &out, io.Discard)
		if !errors.Is(err, core.ErrSimParams) {
			t.Errorf("run(%v): err = %v, want ErrSimParams", tc.args, err)
		} else if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("run(%v): error %q does not name %s", tc.args, err, tc.flag)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed a panel: %q", tc.args, out.String())
		}
	}
}

// TestRunMatchesGolden pins the flow engine's collective panels: its
// makespans are analytical, so every step cycle and packet count is a
// fixed number that a change to the step runner must keep.
func TestRunMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"flow", []string{"-dim", "2", "-volume", "128", "-engine", "flow", "-csv", "-"}},
		{"flow-killchip", []string{"-dim", "3", "-volume", "128",
			"-schedules", "ring,2d,all-to-all,hierarchical", "-killchip", "1", "-killstep", "1",
			"-engine", "flow", "-csv", "-"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run(tc.args, &out, io.Discard); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		if out.String() != string(want) {
			t.Errorf("%s: report differs from the golden:\n got:\n%s\nwant:\n%s", tc.golden, out.String(), want)
		}
	}
}

func TestRunTinyCollective(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	csv := filepath.Join(dir, "collective.csv")
	var buf strings.Builder
	args := []string{"-systems", "switch,2d-mesh", "-schedules", "ring,2d",
		"-dim", "2", "-volume", "64", "-jobs", "2", "-csv", csv}
	if err := run(args, &buf, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"system", "schedule", "switch", "2d-mesh", "ring"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q in:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1+4 { // header + 2 systems × 2 schedules
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), data)
	}
	if lines[0] != "system,schedule,steps,cycles,packets,flits_per_cycle_per_chip,step_cycles" {
		t.Errorf("unexpected header %q", lines[0])
	}
}

// TestRunPacketSizeThreadsThrough pins the -packet satellite fix: the flag
// changes both the injected packets and the efficiency column, so two runs
// at different packet sizes report different step traces while moving the
// same payload.
func TestRunPacketSizeThreadsThrough(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	csvFor := func(packet string) string {
		dir := t.TempDir()
		csv := filepath.Join(dir, "out.csv")
		var buf strings.Builder
		args := []string{"-systems", "2d-mesh", "-schedules", "ring",
			"-dim", "2", "-volume", "256", "-packet", packet, "-csv", csv}
		if err := run(args, &buf, io.Discard); err != nil {
			t.Fatalf("run(-packet %s): %v", packet, err)
		}
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	p4, p8 := csvFor("4"), csvFor("8")
	if p4 == p8 {
		t.Fatalf("-packet had no effect on the measurement:\n%s", p4)
	}
	// Packets halve when the packet size doubles (same payload volume).
	f4, f8 := strings.Split(strings.Split(p4, "\n")[1], ","), strings.Split(strings.Split(p8, "\n")[1], ",")
	if f4[4] == f8[4] {
		t.Errorf("packet count identical across -packet 4/8: %s vs %s", f4[4], f8[4])
	}
}

// TestRunChurnPanel drives the -killchip path end to end: the panel must
// report a finite, positive makespan for both the baseline and the
// disturbed run, and a repeat invocation must be byte-identical (the
// mid-AllReduce death cost is deterministic).
func TestRunChurnPanel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	csvFor := func(name string) string {
		csv := filepath.Join(dir, name)
		var buf strings.Builder
		args := []string{"-systems", "2d-mesh", "-schedules", "ring",
			"-dim", "2", "-volume", "64", "-killchip", "1", "-killstep", "2",
			"-churn", "policy=retry", "-csv", csv}
		if err := run(args, &buf, io.Discard); err != nil {
			t.Fatalf("run: %v", err)
		}
		out := buf.String()
		for _, want := range []string{"chip 1 death before step 2", "baseline", "cost", "2d-mesh"} {
			if !strings.Contains(out, want) {
				t.Errorf("churn report missing %q in:\n%s", want, out)
			}
		}
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatalf("CSV not written: %v", err)
		}
		return string(data)
	}
	a := csvFor("a.csv")
	lines := strings.Split(strings.TrimSpace(a), "\n")
	if len(lines) != 2 { // header + 1 case
		t.Fatalf("CSV has %d lines, want 2:\n%s", len(lines), a)
	}
	f := strings.Split(lines[1], ",")
	// system,schedule,kill_chip,kill_step,steps,baseline_cycles,cycles,...
	if f[5] == "0" || f[6] == "0" {
		t.Fatalf("zero makespan in churn row: %s", lines[1])
	}
	if b := csvFor("b.csv"); a != b {
		t.Fatalf("churn panel not reproducible:\n%s\nvs\n%s", a, b)
	}
}

func TestRunCacheReplayByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	args := func(csv string) []string {
		return []string{"-systems", "2d-mesh", "-schedules", "ring,hierarchical",
			"-dim", "2", "-volume", "64", "-cache", cache, "-csv", csv}
	}
	cold, warm := filepath.Join(dir, "cold.csv"), filepath.Join(dir, "warm.csv")
	var buf strings.Builder
	if err := run(args(cold), &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(args(warm), &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(cold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(warm)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("cache replay diverged:\n%s\nvs\n%s", a, b)
	}
}
