// AllReduce: compare ring-AllReduce bandwidth on a switch-attached C-group
// vs the wafer C-group mesh (paper Fig. 14a), then measure the end-to-end
// makespan of pushing a fixed data volume around the ring — the metric an
// ML-training user actually cares about.
package main

import (
	"fmt"
	"log"
	"os"

	"sldf"
	"sldf/internal/collective"
	"sldf/internal/core"
	"sldf/internal/traffic"
)

func main() {
	sp := sldf.SimParams{Warmup: 800, Measure: 1600, ExtraDrain: 800, PacketSize: 4}
	rates := []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}
	volume := int64(4096)
	if os.Getenv("SLDF_QUICK") != "" {
		// CI smoke mode: tiny windows, thin grid, small ring volume.
		sp = sldf.SimParams{Warmup: 100, Measure: 200, ExtraDrain: 100, PacketSize: 4}
		rates = []float64{1.0, 3.0}
		volume = 256
	}

	fmt.Println("== steady-state ring throughput (Fig. 14a)")
	systems := []struct {
		cfg     sldf.Config
		pattern string
		label   string
	}{
		{sldf.Config{Kind: sldf.SingleSwitch, Terminals: 4, Seed: 1}, "ring", "sw-based-uni"},
		{sldf.Config{Kind: sldf.MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1}, "ring", "sw-less-uni"},
		{sldf.Config{Kind: sldf.SingleSwitch, Terminals: 4, Seed: 1}, "ring-bidir", "sw-based-bi"},
		{sldf.Config{Kind: sldf.MeshCGroup, ChipletDim: 2, NoCDim: 2, Seed: 1}, "ring-bidir", "sw-less-bi"},
	}
	for _, s := range systems {
		series, err := sldf.Sweep(s.cfg, s.pattern, rates, sp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s saturates ≈ %.1f flits/cycle/chip (peak accepted %.2f)\n",
			s.label, series.Saturation(3), series.MaxThroughput())
	}

	// Makespan mode: every chip must circulate the volume to its ring
	// neighbour (one AllReduce step). Lower is better; the mesh C-group's
	// four injection ports per chip finish first.
	fmt.Printf("\n== fixed-volume ring step makespan (%d flits/chip)\n", volume)
	for _, s := range systems[:2] {
		sys, err := core.Build(s.cfg)
		if err != nil {
			log.Fatal(err)
		}
		order := make([]int32, sys.Chips)
		for i := range order {
			order[i] = int32(i)
		}
		step := collective.Schedule{Name: "ring-step", Steps: []collective.Step{
			{Pattern: traffic.NewRing(order, false), Flits: volume},
		}}
		// RunSteps drains to the exact completion cycle — no batch-size
		// quantization in the reported makespan.
		res, err := collective.RunSteps(sys.Net, step, 4, 1_000_000, 0, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s %6d cycles for %d packets (%.2f flits/cycle/chip effective)\n",
			s.label, res.Cycles, res.Packets,
			float64(res.Packets*4)/float64(res.Cycles)/float64(sys.Chips))
		sys.Close()
	}
}
