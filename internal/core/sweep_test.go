package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sldf/internal/campaign"
	"sldf/internal/routing"
	"sldf/internal/topology"
)

func TestRateGridIntegerStepping(t *testing.T) {
	cases := []struct {
		lo, hi, step float64
		n            int
	}{
		// Every grid the figure runners use.
		{0.25, 3.5, 0.25, 14},
		{0.2, 2.4, 0.2, 12},
		{0.2, 2.0, 0.2, 10},
		{0.2, 1.6, 0.2, 8},
		{0.05, 0.5, 0.05, 10},
		{0.2, 1.8, 0.2, 9},
		{0.1, 1.0, 0.1, 10},
		{0.1, 0.6, 0.1, 6},
		{0.25, 1.5, 0.25, 6},
		{0.1, 0.8, 0.1, 8},
		{0.08, 0.8, 0.08, 10},
		{0.048, 0.48, 0.048, 10},
		{0.4, 4.0, 0.4, 10},
		// hi off the grid truncates to the last on-grid point.
		{0.0, 0.25, 0.1, 3},
		// Degenerate inputs.
		{0.5, 0.5, 0.1, 1},
	}
	for _, c := range cases {
		g := RateGrid(c.lo, c.hi, c.step)
		if len(g) != c.n {
			t.Fatalf("RateGrid(%v,%v,%v) = %d points %v, want %d",
				c.lo, c.hi, c.step, len(g), g, c.n)
		}
		if g[0] != c.lo {
			t.Fatalf("RateGrid(%v,%v,%v) starts at %v", c.lo, c.hi, c.step, g[0])
		}
		if math.Abs(g[len(g)-1]-(c.lo+float64(c.n-1)*c.step)) > 1e-12 {
			t.Fatalf("RateGrid(%v,%v,%v) ends at %v", c.lo, c.hi, c.step, g[len(g)-1])
		}
	}
	if g := RateGrid(0.5, 0.4, 0.1); g != nil {
		t.Fatalf("inverted range produced %v", g)
	}
	if g := RateGrid(0.1, 1.0, 0); g != nil {
		t.Fatalf("zero step produced %v", g)
	}
}

func TestConfigLabelMatchesBuild(t *testing.T) {
	cfgs := []Config{
		{Kind: SingleSwitch, Terminals: 4},
		{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2},
		{Kind: SwitchDragonfly, DF: Radix16DF()},
		{Kind: SwitchDragonfly, DF: Radix16DF(), Mode: routing.Valiant},
		{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF()},
		{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), IntraWidth: 2},
		{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Mode: routing.Valiant},
		{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Mode: routing.ValiantLower},
		{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Scheme: routing.ReducedVC},
		{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), IntraWidth: 4, Mode: routing.Valiant},
	}
	for _, cfg := range cfgs {
		sys, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		built := sys.Label
		sys.Close()
		if got := cfg.Label(); got != built {
			t.Fatalf("Config.Label() = %q, Build label = %q", got, built)
		}
	}
}

func TestResetMatchesFreshBuild(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 77}
	cfg.SLDF.G = 1

	fresh, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	pat, err := fresh.PatternFor("uniform")
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.MeasureLoad(pat, 0.8, tinySim())
	if err != nil {
		t.Fatal(err)
	}

	// Dirty a second system with a different load point, reset it, and
	// re-measure: the result must be bitwise identical to the fresh build.
	reused, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reused.Close()
	rpat, err := reused.PatternFor("uniform")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reused.MeasureLoad(rpat, 0.3, tinySim()); err != nil {
		t.Fatal(err)
	}
	reused.Reset()
	got, err := reused.MeasureLoad(rpat, 0.8, tinySim())
	if err != nil {
		t.Fatal(err)
	}

	if got.Stats.InjectedPkts != want.Stats.InjectedPkts ||
		got.Stats.DeliveredPkts != want.Stats.DeliveredPkts {
		t.Fatalf("packet counts diverged after reset: %d/%d vs %d/%d",
			got.Stats.InjectedPkts, got.Stats.DeliveredPkts,
			want.Stats.InjectedPkts, want.Stats.DeliveredPkts)
	}
	if got.Stats.Latency != want.Stats.Latency {
		t.Fatal("latency histogram diverged after reset")
	}
	if got.Stats.Hops != want.Stats.Hops {
		t.Fatal("hop counters diverged after reset")
	}
	if !reflect.DeepEqual(got.Point, want.Point) {
		t.Fatalf("points diverged after reset: %+v vs %+v", got.Point, want.Point)
	}
	if got.Utilization != want.Utilization {
		t.Fatal("utilization diverged after reset")
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 42, Workers: 1}
	cfg.SLDF.G = 1
	rates := RateGrid(0.2, 1.2, 0.2)

	serial, err := runSeries(cfg, "uniform", rates, tinySim(), RunOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{3, 8} {
		par, err := runSeries(cfg, "uniform", rates, tinySim(), RunOptions{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("jobs=%d series diverged from serial:\n%+v\nvs\n%+v", jobs, par, serial)
		}
	}
}

func TestSweepScopedParallelMatchesSerial(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 9, Workers: 1}
	cfg.SLDF.G = 1
	rates := RateGrid(0.3, 0.9, 0.3)
	serial, err := runSeries(cfg, "local-uniform-wgroup", rates, tinySim(), RunOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Label != "sw-less" {
		t.Fatalf("label not derived from config: %q", serial.Label)
	}
	par, err := runSeries(cfg, "local-uniform-wgroup", rates, tinySim(), RunOptions{Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Fatalf("scoped series diverged:\n%+v\nvs\n%+v", par, serial)
	}
}

func TestSweepCacheReplayEqualsColdRun(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 5, Workers: 1}
	rates := RateGrid(0.4, 2.0, 0.4)

	plain, err := runSeries(cfg, "uniform", rates, tinySim(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := runSeries(cfg, "uniform", rates, tinySim(), RunOptions{Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 0 || cache.Misses() == 0 {
		t.Fatalf("cold run: hits=%d misses=%d", cache.Hits(), cache.Misses())
	}
	warm, err := runSeries(cfg, "uniform", rates, tinySim(), RunOptions{Store: cache, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if int(cache.Hits()) != len(rates) {
		t.Fatalf("warm run: %d hits, want %d", cache.Hits(), len(rates))
	}
	if !reflect.DeepEqual(cold, plain) || !reflect.DeepEqual(warm, cold) {
		t.Fatalf("cache replay diverged:\nplain %+v\ncold  %+v\nwarm  %+v", plain, cold, warm)
	}

	// A different seed must not hit the same cache entries.
	cfg2 := cfg
	cfg2.Seed = 6
	if _, err := runSeries(cfg2, "uniform", rates[:1], tinySim(), RunOptions{Store: cache}); err != nil {
		t.Fatal(err)
	}
	if int(cache.Hits()) != len(rates) {
		t.Fatal("cache hit across different seeds: key does not cover the seed")
	}
}

func TestSweepClosesPoolsOnErrorPaths(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 1, Workers: 3}
	cfg.SLDF.G = 1
	// Unknown pattern: the error surfaces after the system (and its worker
	// pool goroutines) was built on the worker.
	if _, err := runSeries(cfg, "no-such-pattern", []float64{0.2, 0.4}, tinySim(),
		RunOptions{Jobs: 2}); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	// Pool goroutines exit asynchronously after Close; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// closeFunc is a worker-held value that records its release.
type closeFunc func()

func (f closeFunc) Close() { f() }

// TestWorkerSystemClosesBeforeBuilding: a worker asked for another
// configuration releases the value it holds before building, so a failing
// (or memory-heavy) build never has two systems reachable at once.
func TestWorkerSystemClosesBeforeBuilding(t *testing.T) {
	var w campaign.Worker
	closed := false
	w.Store("held", closeFunc(func() { closed = true }))
	// Failing the only link of a one-switch system partitions it.
	bad := Config{Kind: SingleSwitch, Terminals: 4, Seed: 1, Faults: topology.FaultSpec{Links: []int32{0}}}
	if _, err := workerSystem(&w, bad.cacheID(), bad); err == nil {
		t.Fatal("partitioned build succeeded")
	}
	if !closed {
		t.Fatal("held value not closed before building another configuration")
	}
	if _, ok := w.Cached("held"); ok {
		t.Fatal("worker still holds the closed value")
	}
}
