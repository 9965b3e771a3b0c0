package profiling

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Tests drive the struct directly, so each can set its own paths.
func testProfiles(cpu, mem string) *Profiles {
	return &Profiles{cpu: &cpu, mem: &mem}
}

func TestDisabledIsNoOp(t *testing.T) {
	p := testProfiles("", "")
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

func TestWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb")
	mem := filepath.Join(dir, "mem.pb")
	p := testProfiles(cpu, mem)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Burn a little CPU so the profile has something to sample.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := p.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile %s not written: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", f)
		}
	}
}

func TestFlagsRegistersOnDefaultSet(t *testing.T) {
	// A flag set takes each flag once, so this is the only registration on
	// the global set; verify it happened by looking the flags up.
	p := Flags(flag.CommandLine)
	if p == nil {
		t.Fatal("Flags returned nil")
	}
	for _, name := range []string{"cpuprofile", "memprofile"} {
		if flag.Lookup(name) == nil {
			t.Fatalf("flag -%s not registered", name)
		}
	}
}
