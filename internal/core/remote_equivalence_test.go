package core

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"sldf/internal/campaign"
	"sldf/internal/campaign/remote"
	"sldf/internal/metrics"
	"sldf/internal/routing"
)

// These tests prove the acceptance criterion end to end on the real
// simulator: a sweep sharded across an emulated 3-worker cluster is
// bitwise identical to the serial local sweep, including when a worker is
// killed partway through the run.

func remoteCluster(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv := remote.NewServer(remote.ServerOptions{Jobs: 2})
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		addrs[i] = ts.URL
	}
	return addrs
}

func TestRemoteSweepBitwiseIdenticalToSerial(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 11, Workers: 1}
	cfg.SLDF.G = 1
	rates := RateGrid(0.2, 1.4, 0.2)

	serial, err := runSeries(cfg, "uniform", rates, tinySim(), RunOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}

	backend, err := remote.New(remoteCluster(t, 3), remote.Options{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := runSeries(cfg, "uniform", rates, tinySim(),
		RunOptions{Jobs: 4, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist, serial) {
		t.Fatalf("3-worker remote sweep diverged from serial:\n%+v\nvs\n%+v", dist, serial)
	}
}

// killingProxy forwards to a live worker until its budget of successful
// requests is spent, then fails everything — a worker lost mid-run.
type killingProxy struct {
	backend http.Handler
	budget  atomic.Int64
}

func (k *killingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/run" && k.budget.Add(-1) < 0 {
		http.Error(w, "worker lost", http.StatusInternalServerError)
		return
	}
	k.backend.ServeHTTP(w, r)
}

func TestRemoteSweepSurvivesWorkerLossMidRun(t *testing.T) {
	cfg := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 3, Workers: 1}
	rates := RateGrid(0.3, 2.1, 0.3)

	serial, err := runSeries(cfg, "uniform", rates, tinySim(), RunOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		addrs := make([]string, 3)
		for i := range addrs {
			srv := remote.NewServer(remote.ServerOptions{Jobs: 1})
			var h http.Handler = srv
			if i == 0 {
				// The first worker dies after a seeded number of batches.
				kp := &killingProxy{backend: srv}
				kp.budget.Store(int64(rng.Intn(3)))
				h = kp
			}
			ts := httptest.NewServer(h)
			t.Cleanup(func() { ts.Close(); srv.Close() })
			addrs[i] = ts.URL
		}
		backend, err := remote.New(addrs, remote.Options{BatchSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		dist, err := runSeries(cfg, "uniform", rates, tinySim(),
			RunOptions{Jobs: 4, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dist, serial) {
			t.Fatalf("trial %d: sweep after worker loss diverged from serial", trial)
		}
	}
}

// TestRemoteWorkerStoreServesReplays exercises the daemon-side store tier:
// a second identical sweep is answered from the worker's memory tier
// without re-simulation, byte-identically.
func TestRemoteWorkerStoreServesReplays(t *testing.T) {
	store := campaign.NewMemoryLRU[metrics.Point](128)
	srv := remote.NewServer(remote.ServerOptions{Jobs: 2, Store: store})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	cfg := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 8, Workers: 1}
	rates := RateGrid(0.5, 1.5, 0.5)
	backend, err := remote.New([]string{ts.URL}, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := runSeries(cfg, "uniform", rates, tinySim(), RunOptions{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if store.Hits() != 0 || store.Len() != len(rates) {
		t.Fatalf("cold run: hits=%d len=%d", store.Hits(), store.Len())
	}
	warm, err := runSeries(cfg, "uniform", rates, tinySim(), RunOptions{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if int(store.Hits()) != len(rates) {
		t.Fatalf("warm run hits=%d, want %d", store.Hits(), len(rates))
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("worker-store replay diverged")
	}
}

// tinyEnergyResiliencePlan is a Fig. 15 panel and a resilience figure on
// single radix-16 W-groups: fractions 0 and 0.05 plus an absurd fraction
// that partitions every draw, two fault seeds.
func tinyEnergyResiliencePlan() ExperimentPlan {
	swb := Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: 3, Workers: 1}
	swb.DF.G = 1
	swl := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 3, Workers: 1}
	swl.SLDF.G = 1
	sim := tinySim()
	en := EnergyFigureSpec{Name: "en", Title: "tiny energy"}
	for _, cfg := range []Config{swb, swl, withMode(swb, routing.Valiant), withMode(swl, routing.Valiant)} {
		en.Bars = append(en.Bars, EnergyBarSpec{Cfg: cfg, Pattern: "uniform", Rate: 0.3, Label: cfg.Label(), Sim: sim})
	}
	return ExperimentPlan{
		Energy: []EnergyFigureSpec{en},
		Resilience: []ResilienceFigureSpec{{Name: "res", Title: "tiny resilience",
			Opts: ResilienceOpts{Fractions: []float64{0, 0.05, 0.9}, RouterScale: 0.5, Seeds: []uint64{1, 2},
				Pattern: "uniform", Rate: 0.2, Sim: sim},
			Series: []ResilienceSeriesSpec{{Cfg: swb, Label: "sw-based"}, {Cfg: swl}},
		}},
	}
}

// TestEnergyResilienceIdenticalAcrossBackends: the energy panel and the
// resilience figure are the same figures run serially, on four local
// workers, into a cold disk cache, replayed from that cache by a fresh
// store, and sharded over two loopback worker daemons; the replay simulates
// nothing and keeps the infeasible draws' counts.
func TestEnergyResilienceIdenticalAcrossBackends(t *testing.T) {
	plan := tinyEnergyResiliencePlan()
	spec := ExperimentSpec{Name: "tiny", Plan: func(Scale) ExperimentPlan { return plan }}
	run := func(opts RunOptions) ExperimentResult {
		t.Helper()
		res, err := RunExperiment(spec, ScaleQuick, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(RunOptions{})
	if n := len(serial.Figures[0].Series[0].Points); n != 2 {
		t.Fatalf("sw-based resilience curve has %d points, want 2 (the absurd fraction omitted)", n)
	}
	for _, bar := range serial.Energy[0].Bars {
		if bar.Inter <= 0 || (bar.Label != "sw-based" && bar.Label != "sw-based-mis" && bar.Intra <= 0) {
			t.Fatalf("bar not priced: %+v", bar)
		}
	}

	dir := t.TempDir()
	cold, err := campaign.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := campaign.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	remoteBackend, err := remote.New(remoteCluster(t, 2), remote.Options{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]RunOptions{
		"jobs4":  {Jobs: 4},
		"remote": {Jobs: 4, Backend: remoteBackend},
	} {
		if got := run(opts); !reflect.DeepEqual(got, serial) {
			t.Fatalf("%s diverged from serial:\n got %+v\nwant %+v", name, got, serial)
		}
	}
	if got := run(RunOptions{Jobs: 2, Store: cold}); !reflect.DeepEqual(got, serial) {
		t.Fatalf("cold-store run diverged from serial:\n got %+v\nwant %+v", got, serial)
	}
	if got := run(RunOptions{Jobs: 2, Store: warm}); !reflect.DeepEqual(got, serial) {
		t.Fatalf("warm replay diverged from serial:\n got %+v\nwant %+v", got, serial)
	}
	if warm.Misses() != 0 || warm.Hits() != cold.Misses() {
		t.Fatalf("warm replay: %d hits, %d misses; want all %d jobs replayed", warm.Hits(), warm.Misses(), cold.Misses())
	}

	// The per-fraction aggregates behind the figure replay too.
	rs := plan.Resilience[0]
	for _, ss := range rs.Series {
		want, err := resilienceCurve(ss.Cfg, rs.Opts, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := resilienceCurve(ss.Cfg, rs.Opts, RunOptions{Store: warm})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed curve diverged:\n got %+v\nwant %+v", got, want)
		}
		if p := got.Points[2]; p.Infeasible != 2 || p.Clean() != 0 {
			t.Fatalf("%s: absurd fraction replayed as %+v, want both draws infeasible", ss.Cfg.Label(), p)
		}
	}
	if warm.Misses() != 0 {
		t.Fatalf("curve replay missed the cache %d times", warm.Misses())
	}
}
