// Churn: live fault timelines — components die and come back at seeded
// cycles *while the simulation runs*, routing recomputes around the
// corpses, and stranded packets are dropped or retried per policy. Two
// walkthroughs:
//
//  1. A steady-state load point on the wafer mesh under a seeded
//     death/repair window, with the full churn accounting (dropped,
//     retried, refused — and packet conservation).
//  2. The question the churn experiment family answers end to end: what
//     does a chip death at step k cost an in-flight AllReduce? The same
//     collective runs undisturbed and with a mid-flight kill (the
//     schedule recomputes over the survivors), and the makespan delta is
//     the exact price of the death.
//
// Every number here is deterministic: same seeds, same timeline, same
// output, on either cycle engine.
package main

import (
	"fmt"
	"log"
	"os"

	"sldf"
	"sldf/internal/core"
)

func main() {
	sp := sldf.SimParams{Warmup: 500, Measure: 2000, ExtraDrain: 1000, PacketSize: 4}
	spec := "links=0.03,routers=0.02,seed=7,start=700,end=2500,repair=600,policy=retry"
	volume := int64(512)
	if os.Getenv("SLDF_QUICK") != "" {
		// CI smoke mode: tiny windows, same structure.
		sp = sldf.SimParams{Warmup: 100, Measure: 400, ExtraDrain: 200, PacketSize: 4}
		spec = "links=0.03,routers=0.02,seed=7,start=150,end=500,repair=120,policy=retry"
		volume = 128
	}

	// 1. Steady state under churn: the timeline arms the build (fault-grade
	// routing tables), then kills and repairs sampled components at seeded
	// cycles mid-measurement.
	timeline, err := sldf.ParseChurn(spec)
	if err != nil {
		log.Fatal(err)
	}
	cfg := sldf.Config{Kind: sldf.MeshCGroup, ChipletDim: 4, NoCDim: 2, Seed: 7}
	cfg.Churn = timeline
	sys, err := sldf.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	pat, err := sys.PatternFor("uniform")
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.MeasureLoad(pat, 0.4, sp)
	if err != nil {
		log.Fatal(err)
	}
	st := res.Stats
	fmt.Printf("== uniform 0.4 on %s under churn %q\n", sys.Label, spec)
	fmt.Printf("  latency %.1f cycles, accepted %.3f flits/cycle/chip\n",
		res.Point.Latency, res.Point.Throughput)
	fmt.Printf("  injected %d = delivered %d + dropped %d + in-flight %d (retried %d, refused %d)\n",
		st.InjectedPkts, st.DeliveredPkts, st.DroppedPkts, st.InFlightPkts,
		st.RetriedPkts, st.RefusedPkts)
	if st.InjectedPkts != st.DeliveredPkts+st.DroppedPkts+st.InFlightPkts {
		log.Fatalf("packet conservation violated")
	}
	sys.Close()

	// 2. Mid-AllReduce chip death. An armed zero-event timeline builds
	// fault-grade without scheduling any sampled churn; the kill is then
	// injected at an exact step boundary, so the baseline and the disturbed
	// run differ by the death alone.
	ccfg := sldf.Config{Kind: sldf.MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1}
	ccfg.Churn.Armed = true
	csys, err := core.Build(ccfg)
	if err != nil {
		log.Fatal(err)
	}
	defer csys.Close()
	cs := core.CollectiveSpec{Cfg: ccfg, Schedule: "ring", Volume: volume}
	base, err := csys.MeasureCollective(cs)
	if err != nil {
		log.Fatal(err)
	}
	csys.Reset()
	cs.Kill = &core.ChipKill{Chip: 1, Step: 2}
	kill, err := csys.MeasureCollective(cs)
	if err != nil {
		log.Fatal(err)
	}
	pre, post := int64(kill.Aux[1]), int64(kill.Aux[2])
	fmt.Printf("\n== ring AllReduce (%d flits/chip) on %s, chip %d dies before step %d\n",
		volume, csys.Label, cs.Kill.Chip, cs.Kill.Step)
	fmt.Printf("  undisturbed makespan %6.0f cycles\n", base.Latency)
	fmt.Printf("  disturbed   makespan %6.0f cycles (%d pre-kill + %d post-kill)\n",
		kill.Latency, pre, post)
	fmt.Printf("  cost of the death    %+6.0f cycles (dropped %d, retried %d)\n",
		kill.Latency-base.Latency, int64(kill.Aux[3]), int64(kill.Aux[4]))
}
