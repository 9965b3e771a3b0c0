package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sldf/internal/campaign"
	"sldf/internal/campaign/remote"
	"sldf/internal/collective"
	"sldf/internal/metrics"
	"sldf/internal/netsim"
	"sldf/internal/topology"
)

// collectiveKinds is one small configuration per system kind, the coverage
// the collective experiment family promises.
func collectiveKinds() []struct {
	name string
	cfg  Config
} {
	swb := Config{Kind: SwitchDragonfly, DF: Radix16DF(), Seed: 7, Workers: 1}
	swb.DF.G = 1
	swl := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 7, Workers: 1}
	swl.SLDF.G = 1
	return []struct {
		name string
		cfg  Config
	}{
		{"switch", Config{Kind: SingleSwitch, Terminals: 4, Seed: 7, Workers: 1}},
		{"mesh", Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 7, Workers: 1}},
		{"sw-based", swb},
		{"sw-less", swl},
	}
}

// TestCollectiveEngineEquivalence is the acceptance criterion for the new
// drain path: on every system kind, the active-set engine and the full-scan
// reference engine measure identical makespans (every step cycle, packet
// count and derived column) for every schedule in the library.
func TestCollectiveEngineEquivalence(t *testing.T) {
	for _, k := range collectiveKinds() {
		for _, sch := range CollectiveSchedules() {
			t.Run(k.name+"/"+sch, func(t *testing.T) {
				measure := func(eng netsim.EngineKind) metrics.Point {
					sys, err := Build(k.cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					pt, err := sys.MeasureCollective(CollectiveSpec{
						Cfg: k.cfg, Schedule: sch, Volume: 96, Engine: eng})
					if err != nil {
						t.Fatal(err)
					}
					return pt
				}
				act := measure(netsim.EngineActiveSet)
				ref := measure(netsim.EngineReference)
				if !reflect.DeepEqual(act, ref) {
					t.Fatalf("engines diverged:\nactive:    %+v\nreference: %+v", act, ref)
				}
				if act.Latency <= 0 || len(act.Aux) < 2 {
					t.Fatalf("vacuous measurement %+v", act)
				}
			})
		}
	}
}

// TestCollectiveSerialCachedRemoteByteIdentical is the pipeline acceptance
// criterion: the same collective panel measured serially, replayed from a
// cold disk cache, and sharded across an emulated 2-worker cluster renders
// byte-identical CSV.
func TestCollectiveSerialCachedRemoteByteIdentical(t *testing.T) {
	var spec CollectiveFigureSpec
	spec.Name = "eq"
	for _, k := range collectiveKinds() {
		for _, sch := range []string{"ring", "2d", "hierarchical"} {
			spec.Cases = append(spec.Cases, CollectiveCaseSpec{
				Cfg: k.cfg, Schedule: sch, Label: k.name, Volume: 96})
		}
	}

	serial, err := runCollectives(spec, RunOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := serial.CSV()

	// Cold cache fill, then a replay that must not re-simulate.
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	filled, err := runCollectives(spec, RunOptions{Jobs: 4, Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := filled.CSV(); got != want {
		t.Fatalf("parallel cache-fill diverged:\n%s\nvs\n%s", got, want)
	}
	replay, err := runCollectives(spec, RunOptions{Jobs: 1, Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := replay.CSV(); got != want {
		t.Fatalf("cache replay diverged:\n%s\nvs\n%s", got, want)
	}
	if cache.Hits() != int64(len(spec.Cases)) {
		t.Fatalf("replay hit the cache %d times, want %d", cache.Hits(), len(spec.Cases))
	}

	backend, err := remote.New(remoteCluster(t, 2), remote.Options{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := runCollectives(spec, RunOptions{Jobs: 4, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if got := dist.CSV(); got != want {
		t.Fatalf("2-worker remote run diverged:\n%s\nvs\n%s", got, want)
	}
}

// TestCollectiveSpecJSONRoundTrip guards the wire format: a spec survives
// JSON exactly, a spec without a kill keeps the key and payload it had
// before kills existed (so existing stores keep serving it), and the job
// key covers schedule, volume, packet, engine and both kill coordinates.
func TestCollectiveSpecJSONRoundTrip(t *testing.T) {
	plain := CollectiveSpec{Cfg: collectiveKinds()[1].cfg, Schedule: "hierarchical",
		Volume: 12345, PacketSize: 8, MaxStepCycles: 999, Engine: netsim.EngineReference}
	job, err := CollectiveJob(plain)
	if err != nil {
		t.Fatal(err)
	}
	const wantKey = "kind=3 df={P:0 A:0 H:0 G:0} sldf={NoCDim:0 ChipCols:0 ChipRows:0 AB:0 H:0 G:0 Layout:0} " +
		"term=0 chiplet=2 noc=2 scheme=0 mode=0 width=0 seed=0x7" +
		"|collective=hierarchical|vol=12345|pkt=8|maxstep=999|engine=reference"
	const wantPayload = `{"cfg":{"Kind":3,"DF":{"P":0,"A":0,"H":0,"G":0},` +
		`"SLDF":{"NoCDim":0,"ChipCols":0,"ChipRows":0,"AB":0,"H":0,"G":0,"Layout":0},` +
		`"Terminals":0,"ChipletDim":2,"NoCDim":2,"Scheme":0,"Mode":0,"IntraWidth":0,` +
		`"Faults":{"Seed":0,"LinkFraction":0,"RouterFraction":0,"Links":null,"Routers":null},` +
		`"Churn":{"Armed":false,"Seed":0,"LinkChurn":0,"RouterChurn":0,"Start":0,"End":0,"Repair":0,"Policy":0,"Events":null},` +
		`"Seed":7,"Workers":1,"WatchdogCycles":0},` +
		`"schedule":"hierarchical","volume":12345,"packet":8,"max_step_cycles":999,"engine":1}`
	if job.Key != wantKey {
		t.Fatalf("kill-free key changed:\ngot:  %s\nwant: %s", job.Key, wantKey)
	}
	if string(job.Payload) != wantPayload {
		t.Fatalf("kill-free payload changed:\ngot:  %s\nwant: %s", job.Payload, wantPayload)
	}

	cs := plain
	cs.Kill = &ChipKill{Chip: 1, Step: 2}
	for _, spec := range []CollectiveSpec{plain, cs} {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back CollectiveSpec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip changed the spec: %+v vs %+v", spec, back)
		}
	}
	base, _ := CollectiveJob(cs)
	for _, mut := range []func(*CollectiveSpec){
		func(s *CollectiveSpec) { s.Schedule = "ring" },
		func(s *CollectiveSpec) { s.Volume = 54321 },
		func(s *CollectiveSpec) { s.PacketSize = 4 },
		func(s *CollectiveSpec) { s.MaxStepCycles = 0 },
		func(s *CollectiveSpec) { s.Engine = netsim.EngineActiveSet },
		func(s *CollectiveSpec) { s.Kill = nil },
		func(s *CollectiveSpec) { s.Kill = &ChipKill{Chip: 2, Step: s.Kill.Step} },
		func(s *CollectiveSpec) { s.Kill = &ChipKill{Chip: s.Kill.Chip, Step: 3} },
	} {
		m := cs
		mut(&m)
		spec, err := CollectiveJob(m)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Key == base.Key {
			t.Fatalf("mutated spec %+v shares the content address %q", m, base.Key)
		}
	}
}

// TestCollectiveFaultedReroutes proves the fault contract: schedules on a
// degraded build re-route over the surviving chips and still drain to
// completion, with fewer participants than the pristine run.
func TestCollectiveFaultedReroutes(t *testing.T) {
	cfg := Config{Kind: SwitchlessDragonfly, SLDF: Radix16SLDF(), Seed: 7, Workers: 1}
	cfg.SLDF.G = 1
	// Seed 6 at these fractions deterministically kills a chip, so the
	// re-route path (not just the pristine-order fast path) is exercised.
	cfg.Faults = topology.FaultSpec{Seed: 6, LinkFraction: 0.08, RouterFraction: 0.08}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if len(sys.DeadChips()) == 0 {
		t.Fatal("fault draw killed no chip; the re-route path is untested")
	}
	for _, sch := range CollectiveSchedules() {
		s, err := ScheduleFor(sys, sch, 96)
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		for _, st := range s.Steps {
			for _, c := range st.Participants {
				if !sys.Net.ChipAlive(c) {
					t.Fatalf("%s schedules dead chip %d", sch, c)
				}
			}
		}
		sys.Reset()
		pt, err := sys.MeasureCollective(CollectiveSpec{Cfg: cfg, Schedule: sch, Volume: 96})
		if err != nil {
			t.Fatalf("%s on faulted build: %v", sch, err)
		}
		if pt.Latency <= 0 {
			t.Fatalf("%s: empty measurement %+v", sch, pt)
		}
	}
}

// TestCollectivePartitioned: fewer than two alive participants must
// surface collective.ErrPartitioned, not hang or measure nothing. Chips
// 1-3 of a four-terminal switch die through the armed timeline, so the
// schedule reads the network's own liveness.
func TestCollectivePartitioned(t *testing.T) {
	cfg := Config{Kind: SingleSwitch, Terminals: 4, Seed: 1, Workers: 1}
	cfg.Churn = topology.FaultTimeline{Armed: true}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := ScheduleFor(sys, "ring", 64); err != nil {
		t.Fatalf("all chips alive: %v", err)
	}
	for chip := int32(1); chip < 4; chip++ {
		if err := sys.ApplyChipKill(chip); err != nil {
			t.Fatal(err)
		}
	}
	_, err = ScheduleFor(sys, "ring", 64)
	if !errors.Is(err, collective.ErrPartitioned) {
		t.Fatalf("got %v, want ErrPartitioned", err)
	}
}

// TestCollectiveUnknownSchedule pins the error path a bad -schedules flag
// or a stale shipped spec hits.
func TestCollectiveUnknownSchedule(t *testing.T) {
	sys, err := Build(Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := ScheduleFor(sys, "nope", 64); err == nil {
		t.Fatal("unknown schedule accepted")
	}
}

// TestGoldenCollective locks the exact post-barrier-fix makespans for every
// system kind into a committed fixture: per-step cycles, totals and packet
// counts. Regenerate deliberately with
//
//	go test ./internal/core -run TestGoldenCollective -update
func TestGoldenCollective(t *testing.T) {
	type entry struct {
		System string                  `json:"system"`
		Rows   []metrics.CollectiveRow `json:"rows"`
	}
	var got []entry
	for _, k := range collectiveKinds() {
		e := entry{System: k.name}
		for _, sch := range []string{"ring", "2d", "hierarchical"} {
			sys, err := Build(k.cfg)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := sys.MeasureCollective(CollectiveSpec{Cfg: k.cfg, Schedule: sch, Volume: 128})
			sys.Close()
			if err != nil {
				t.Fatal(err)
			}
			e.Rows = append(e.Rows, CollectiveRowFromPoint(k.name, sch, pt))
		}
		got = append(got, e)
	}
	checkGolden(t, "golden_collective.json", got, *updateGolden)
}

// TestCollectiveRejectsBadSpecs: a zero or negative volume, a negative
// packet size or step bound, or a kill before a negative step is rejected
// with ErrSimParams when the job is lowered, by the executor a worker
// daemon runs (before it builds a system), and by MeasureCollective,
// instead of measuring a 0-cycle row, a default-size packet filed under
// the default's key, or a clamped kill.
func TestCollectiveRejectsBadSpecs(t *testing.T) {
	cfg := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1, Workers: 1}
	cfg.Churn.Armed = true
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for name, cs := range map[string]CollectiveSpec{
		"volume":  {Cfg: cfg, Schedule: "ring", Volume: -5},
		"empty":   {Cfg: cfg, Schedule: "ring", Volume: 0},
		"maxstep": {Cfg: cfg, Schedule: "ring", Volume: 32, MaxStepCycles: -1},
		"packet":  {Cfg: cfg, Schedule: "ring", Volume: 32, PacketSize: -4},
		"kill":    {Cfg: cfg, Schedule: "ring", Volume: 32, Kill: &ChipKill{Chip: 1, Step: -4}},
	} {
		if _, err := CollectiveJob(cs); !errors.Is(err, ErrSimParams) {
			t.Errorf("%s: CollectiveJob err = %v, want ErrSimParams", name, err)
		}
		payload, err := json.Marshal(cs)
		if err != nil {
			t.Fatal(err)
		}
		var w campaign.Worker
		if _, err := runCollectiveJob(&w, payload); !errors.Is(err, ErrSimParams) {
			t.Errorf("%s: executor err = %v, want ErrSimParams", name, err)
		}
		if _, built := w.Cached(cfg.cacheID()); built {
			t.Errorf("%s: the executor built a system for a spec it rejects", name)
		}
		if _, err := sys.MeasureCollective(cs); !errors.Is(err, ErrSimParams) {
			t.Errorf("%s: MeasureCollective err = %v, want ErrSimParams", name, err)
		}
	}
}

// TestCollectiveRejectsKillPastEnd: a kill before a step the schedule does
// not have would land after the collective finished and cost nothing, and a
// kill before a step the survivors' shorter schedule does not have would
// run no post-kill step and report a makespan below the undisturbed one, so
// MeasureCollective rejects both with ErrSimParams, naming both schedule
// lengths in the second case; a kill before the survivors' last step still
// measures.
func TestCollectiveRejectsKillPastEnd(t *testing.T) {
	cfg := Config{Kind: MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1, Workers: 1}
	cfg.Churn.Armed = true
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sch, err := ScheduleFor(sys, "ring", 32)
	if err != nil {
		t.Fatal(err)
	}
	steps := len(sch.Steps)
	if err := sys.ApplyChipKill(1); err != nil {
		t.Fatal(err)
	}
	surv, err := ScheduleFor(sys, "ring", 32)
	if err != nil {
		t.Fatal(err)
	}
	sys.Reset()
	survSteps := len(surv.Steps)
	if survSteps >= steps {
		t.Fatalf("survivor ring has %d steps, the full ring %d; want fewer", survSteps, steps)
	}
	for _, step := range []int{steps, steps + 1, 100} {
		cs := CollectiveSpec{Cfg: cfg, Schedule: "ring", Volume: 32, Kill: &ChipKill{Chip: 1, Step: step}}
		if _, err := sys.MeasureCollective(cs); !errors.Is(err, ErrSimParams) {
			t.Errorf("kill before step %d of %d: err = %v, want ErrSimParams", step, steps, err)
		}
		sys.Reset()
	}
	for step := survSteps; step < steps; step++ {
		cs := CollectiveSpec{Cfg: cfg, Schedule: "ring", Volume: 32, Kill: &ChipKill{Chip: 1, Step: step}}
		_, err := sys.MeasureCollective(cs)
		if !errors.Is(err, ErrSimParams) {
			t.Errorf("kill before step %d of %d, survivors %d: err = %v, want ErrSimParams", step, steps, survSteps, err)
		} else if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%d-step", steps)) ||
			!strings.Contains(msg, fmt.Sprintf("%d-step schedule with no step", survSteps)) {
			t.Errorf("kill before step %d: error %q does not name both schedule lengths", step, msg)
		}
		sys.Reset()
	}
	cs := CollectiveSpec{Cfg: cfg, Schedule: "ring", Volume: 32, Kill: &ChipKill{Chip: 1, Step: survSteps - 1}}
	pt, err := sys.MeasureCollective(cs)
	if err != nil {
		t.Fatalf("kill before the survivors' last step %d: %v", survSteps-1, err)
	}
	if pt.Latency <= 0 || pt.Aux[1] <= 0 || pt.Aux[2] <= 0 {
		t.Errorf("kill before the survivors' last step measured no pre-kill or post-kill steps: %+v", pt)
	}
}
