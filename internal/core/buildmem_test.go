package core

import (
	"runtime"
	"testing"
)

// radix16FlowHeapPerChip is the ceiling on a full radix-16 SLDF build's
// live heap per chip before any cycle engine runs: the measured 1,342–1,343
// B (Go 1.24, linux/amd64) plus 5%. A build that starts allocating cycle
// state again, retains builder garbage, gives Link back its own copy of its
// spec (1,680 B) or gives Router back its port slice headers and random
// stream (2,454 B) crosses it.
const radix16FlowHeapPerChip = 1410

// TestBuildAllocatesLean pins the lean build on the full radix-16
// switch-less system: construction allocates little beyond what the system
// keeps (exact-size builder tables are adopted, not copied; cycle-engine
// state waits for a cycle engine), and the kept heap per chip stays under
// its pinned ceiling.
func TestBuildAllocatesLean(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 1}
	var before, built, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&built)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	alloc := float64(built.TotalAlloc - before.TotalAlloc)
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	perChip := heap / float64(sys.Chips)
	runtime.KeepAlive(sys)
	sys.Close()
	t.Logf("build allocated %.1f MB, kept %.1f MB (%.0f B/chip)", alloc/1e6, heap/1e6, perChip)
	if alloc > 1.2*heap {
		t.Errorf("build allocated %.1f MB for %.1f MB of live heap (ratio %.2f, want <= 1.2)",
			alloc/1e6, heap/1e6, alloc/heap)
	}
	if perChip > radix16FlowHeapPerChip {
		t.Errorf("live heap %.0f B/chip, want <= %d", perChip, radix16FlowHeapPerChip)
	}
}
