package netsim

import (
	"errors"
	"reflect"
	"testing"

	"sldf/internal/engine"
)

// uniformGen injects with probability prob per node-cycle to a uniformly
// random other chip, using the injector's own RNG stream (deterministic).
func uniformGen(chips int, prob float64) Generator {
	return GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
		if !rng.Bernoulli(prob) {
			return -1
		}
		dst := int32(rng.Intn(chips - 1))
		if dst >= src {
			dst++
		}
		return dst
	})
}

// runLine steps a fresh 8-router line under uniform traffic for the given
// engine, toggling engines mid-run when toggle is set, and returns the
// final snapshot.
func runLine(t *testing.T, kind EngineKind, toggle bool) Stats {
	t.Helper()
	spec := LinkSpec{Delay: 1, Width: 1, Class: HopShortReach, VCs: 1, BufFlits: 32}
	net := buildLine(t, 8, spec, NetworkOptions{Seed: 42, Workers: 1})
	defer net.Close()
	net.SetEngine(kind)
	net.SetTraffic(uniformGen(8, 0.1), 4, DstSameIndex)
	net.StartMeasurement()
	if toggle {
		// Switch engines with traffic in flight: SetEngine must rebuild the
		// active sets from the network's current contents.
		for i := 0; i < 6; i++ {
			if err := net.Run(50); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				net.SetEngine(EngineReference)
			} else {
				net.SetEngine(EngineActiveSet)
			}
		}
		net.SetEngine(kind)
		if err := net.Run(100); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := net.Run(400); err != nil {
			t.Fatal(err)
		}
	}
	net.StopMeasurement()
	if _, err := net.Drain(10000); err != nil {
		t.Fatal(err)
	}
	return net.Snapshot()
}

// TestEngineSwitchMidRun checks SetEngine's active-set rebuild: a run that
// flips between the engines every 50 cycles must end bit-identical to runs
// that stay on either engine throughout.
func TestEngineSwitchMidRun(t *testing.T) {
	ref := runLine(t, EngineReference, false)
	act := runLine(t, EngineActiveSet, false)
	mixed := runLine(t, EngineActiveSet, true)
	if !reflect.DeepEqual(ref, act) {
		t.Fatalf("engines diverged:\nreference: %+v\nactive:    %+v", ref, act)
	}
	if !reflect.DeepEqual(ref, mixed) {
		t.Fatalf("mid-run engine switching diverged:\nreference: %+v\nmixed:     %+v", ref, mixed)
	}
	if ref.DeliveredPkts == 0 {
		t.Fatal("no traffic delivered; the comparison is vacuous")
	}
}

// TestActiveSetSteadyStateAllocs is the free-list regression gate: once a
// network reaches steady state, stepping it must allocate (essentially)
// nothing — packets come from the per-shard free lists and every queue has
// grown to its working size.
func TestActiveSetSteadyStateAllocs(t *testing.T) {
	spec := LinkSpec{Delay: 1, Width: 1, Class: HopShortReach, VCs: 1, BufFlits: 32}
	net := buildLine(t, 8, spec, NetworkOptions{Seed: 7, Workers: 1})
	defer net.Close()
	net.SetTraffic(uniformGen(8, 0.15), 4, DstSameIndex)
	if err := net.Run(5000); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(2000, func() { net.Step() })
	// Residual allocations (a queue growing past its historical high-water
	// mark) are allowed to be rare, not per-cycle.
	if avg > 0.05 {
		t.Fatalf("steady-state Step allocates %.3f objects/cycle, want ~0", avg)
	}
}

// TestWatchdogTripCounted checks the deadlock watchdog surfaces in Stats:
// a packet that can never fit its downstream buffer (BufFlits < packet
// size) stalls forever, Run returns ErrDeadlock, and the trip is counted.
func TestWatchdogTripCounted(t *testing.T) {
	spec := LinkSpec{Delay: 1, Width: 1, Class: HopShortReach, VCs: 1, BufFlits: 2}
	net := buildLine(t, 2, spec, NetworkOptions{Seed: 1, Workers: 1, WatchdogCycles: 50})
	defer net.Close()
	injected := false
	net.SetTraffic(GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
		if injected || src != 0 {
			return -1
		}
		injected = true
		return 1
	}), 4, DstSameIndex)
	err := net.Run(500)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	if got := net.Snapshot().WatchdogTrips; got != 1 {
		t.Fatalf("WatchdogTrips = %d, want 1", got)
	}
	// A second stalled run keeps counting; Reset clears the counter.
	if err := net.Run(500); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second Run = %v, want ErrDeadlock", err)
	}
	if got := net.Snapshot().WatchdogTrips; got != 2 {
		t.Fatalf("WatchdogTrips after second trip = %d, want 2", got)
	}
	net.Reset()
	if got := net.Snapshot().WatchdogTrips; got != 0 {
		t.Fatalf("WatchdogTrips after Reset = %d, want 0", got)
	}
}
