package collective

import (
	"testing"

	"sldf/internal/netsim"
	"sldf/internal/topology"
	"sldf/internal/traffic"
)

func buildMesh(t testing.TB, chipletDim int) *topology.MeshCGroup {
	t.Helper()
	g, err := topology.BuildMeshCGroup(chipletDim, 2, topology.DefaultLinkClasses(1, 1),
		netsim.NetworkOptions{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.Net.SetRoute(g.RouteXY())
	return g
}

func TestRingScheduleShape(t *testing.T) {
	order := SnakeOrder(4, 4)
	s := RingAllReduce(order, 1600)
	if s.StepCount() != 30 { // 2(N-1) with N=16
		t.Fatalf("ring steps = %d, want 30", s.StepCount())
	}
	if s.Steps[0].Flits != 100 {
		t.Fatalf("chunk = %d, want 100", s.Steps[0].Flits)
	}
}

func TestTwoDScheduleShape(t *testing.T) {
	s := TwoDAllReduce(4, 4, 1600)
	if s.StepCount() != 12 { // 2(4-1)+2(4-1)
		t.Fatalf("2D steps = %d, want 12", s.StepCount())
	}
	// Far fewer dependent steps than the flat ring.
	if s.StepCount() >= RingAllReduce(SnakeOrder(4, 4), 1600).StepCount() {
		t.Fatal("2D must need fewer steps than the ring")
	}
}

func TestBidirHalvesSteps(t *testing.T) {
	order := SnakeOrder(2, 2)
	uni := RingAllReduce(order, 400)
	bi := BidirRingAllReduce(order, 400)
	if bi.StepCount() != uni.StepCount()/2 {
		t.Fatalf("bidir steps %d, uni %d", bi.StepCount(), uni.StepCount())
	}
}

func TestSnakeOrderAdjacency(t *testing.T) {
	order := SnakeOrder(4, 4)
	if len(order) != 16 {
		t.Fatalf("order len %d", len(order))
	}
	seen := map[int32]bool{}
	for i, c := range order {
		if seen[c] {
			t.Fatalf("duplicate chip %d", c)
		}
		seen[c] = true
		if i == 0 {
			continue
		}
		// Consecutive chips must be grid-adjacent.
		pr, pc := order[i-1]/4, order[i-1]%4
		cr, cc := c/4, c%4
		if abs(pr-cr)+abs(pc-cc) != 1 {
			t.Fatalf("snake break between %d and %d", order[i-1], c)
		}
	}
}

func abs(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func TestRunRingCompletes(t *testing.T) {
	g := buildMesh(t, 2) // 4 chips
	defer g.Net.Close()
	s := RingAllReduce(SnakeOrder(2, 2), 256)
	res, err := RunSteps(g.Net, s, 4, 1<<16, 0, len(s.Steps))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || len(res.StepCycles) != s.StepCount() {
		t.Fatalf("bad result %+v", res)
	}
	// Every chip transmits per step: 4 chips × 64 flits/step packets.
	wantPkts := int64(s.StepCount()) * 4 * (64 / 4) / 4 * 4
	if res.Packets != wantPkts {
		t.Fatalf("packets %d, want %d", res.Packets, wantPkts)
	}
}

func TestTwoDBeatsRingOnMesh(t *testing.T) {
	// Fig. 4's point: on a 16-chip C-group mesh the 2D algorithm's O(√N)
	// dependent steps finish far sooner than the ring's O(N).
	const volume = 512
	ring := func() int64 {
		g := buildMesh(t, 4)
		defer g.Net.Close()
		s := RingAllReduce(SnakeOrder(4, 4), volume)
		res, err := RunSteps(g.Net, s, 4, 1<<18, 0, len(s.Steps))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}()
	twoD := func() int64 {
		g := buildMesh(t, 4)
		defer g.Net.Close()
		s := TwoDAllReduce(4, 4, volume)
		res, err := RunSteps(g.Net, s, 4, 1<<18, 0, len(s.Steps))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}()
	if twoD >= ring {
		t.Fatalf("2D makespan %d not better than ring %d", twoD, ring)
	}
}

func TestEmptySchedules(t *testing.T) {
	if RingAllReduce(nil, 100).StepCount() != 0 {
		t.Fatal("empty ring must have no steps")
	}
	if TwoDAllReduce(1, 1, 100).StepCount() != 0 {
		t.Fatal("1x1 2D must have no steps")
	}
	if AllToAll([]int32{3}, 100).StepCount() != 0 {
		t.Fatal("1-chip all-to-all must have no steps")
	}
	if ReduceScatter(nil, 100).StepCount() != 0 || AllGather(nil, 100).StepCount() != 0 {
		t.Fatal("empty ring halves must have no steps")
	}
	if HierarchicalAllReduce(nil, 100).StepCount() != 0 {
		t.Fatal("groupless hierarchical must have no steps")
	}
	if HierarchicalAllReduce([][]int32{{0, 1}, {2}}, 100).StepCount() != 0 {
		t.Fatal("uneven groups must yield an empty schedule (caller re-routes)")
	}
}

// blocks partitions 0..n-1 into g equal groups, the shape W-groups have.
func blocks(g, m int) [][]int32 {
	out := make([][]int32, g)
	for i := range out {
		for j := 0; j < m; j++ {
			out[i] = append(out[i], int32(i*m+j))
		}
	}
	return out
}

// TestScheduleVolumeConservation pins the schedule algebra on volumes that
// divide evenly, where the chunk arithmetic is exact: the ring AllReduce
// moves 2(N−1)/N·V per chip (reduce-scatter and all-gather each half of
// it), the rotation all-to-all (N−1)/N·V, and the hierarchical two-level
// schedule moves exactly the flat ring's volume — it saves dependent
// steps, never flits.
func TestScheduleVolumeConservation(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		order := SnakeOrder(1, n)
		v := int64(16 * n * n) // divisible by n, 2n, and n*m for the splits below
		nn := int64(n)

		ring := RingAllReduce(order, v).TotalFlitsPerChip()
		if want := 2 * (nn - 1) * v / nn; ring != want {
			t.Fatalf("n=%d ring volume %d, want %d", n, ring, want)
		}
		rs := ReduceScatter(order, v).TotalFlitsPerChip()
		ag := AllGather(order, v).TotalFlitsPerChip()
		if rs != ring/2 || ag != ring/2 {
			t.Fatalf("n=%d rs=%d ag=%d, want each %d (half the AllReduce)", n, rs, ag, ring/2)
		}
		if rs+ag != ring {
			t.Fatalf("n=%d reduce-scatter + all-gather = %d, want ring's %d", n, rs+ag, ring)
		}
		if a2a := AllToAll(order, v).TotalFlitsPerChip(); a2a != (nn-1)*v/nn {
			t.Fatalf("n=%d all-to-all volume %d, want %d", n, a2a, (nn-1)*v/nn)
		}
		// Two-level with g groups of m chips (g·m = n): same total volume as
		// the flat ring over n chips, in 2(m−1)+2(g−1) < 2(n−1) steps.
		g, m := 2, n/2
		hier := HierarchicalAllReduce(blocks(g, m), v)
		if got := hier.TotalFlitsPerChip(); got != ring {
			t.Fatalf("n=%d hierarchical volume %d, want flat ring's %d", n, got, ring)
		}
		if want := 2*(m-1) + 2*(g-1); hier.StepCount() != want {
			t.Fatalf("n=%d hierarchical steps %d, want %d", n, hier.StepCount(), want)
		}
		if n > 4 && hier.StepCount() >= RingAllReduce(order, v).StepCount() {
			t.Fatalf("n=%d hierarchical must need fewer dependent steps than the ring", n)
		}
	}
}

// TestTotalFlitsMatchesStepSum pins TotalFlitsPerChip to the per-step
// declaration for every schedule shape.
func TestTotalFlitsMatchesStepSum(t *testing.T) {
	order := SnakeOrder(2, 4)
	for _, s := range []Schedule{
		RingAllReduce(order, 555),
		BidirRingAllReduce(order, 555),
		ReduceScatter(order, 555),
		AllGather(order, 555),
		AllToAll(order, 555),
		TwoDAllReduce(2, 4, 555),
		HierarchicalAllReduce(blocks(2, 4), 555),
	} {
		var sum int64
		for _, st := range s.Steps {
			sum += st.Flits
		}
		if got := s.TotalFlitsPerChip(); got != sum {
			t.Fatalf("%s: TotalFlitsPerChip %d != step sum %d", s.Name, got, sum)
		}
	}
}

// TestStepPatternsPermuteParticipants checks every step of every new
// schedule maps each participant to a distinct other participant (silent
// self-maps excluded) — the property that lets disjoint rings share one
// dependent step.
func TestStepPatternsPermuteParticipants(t *testing.T) {
	order := SnakeOrder(2, 4)
	for _, s := range []Schedule{
		AllToAll(order, 512),
		TwoDAllReduceOrder(order, 2, 4, 512),
		HierarchicalAllReduce(blocks(4, 2), 512),
	} {
		for i, st := range s.Steps {
			if len(st.Participants) != len(order) {
				t.Fatalf("%s step %d: %d participants, want %d", s.Name, i, len(st.Participants), len(order))
			}
			seen := map[int32]bool{}
			for _, src := range st.Participants {
				d := st.Pattern.Dest(src, nil)
				if d < 0 || d == src {
					t.Fatalf("%s step %d: participant %d is silent", s.Name, i, src)
				}
				if seen[d] {
					t.Fatalf("%s step %d: destination %d receives twice", s.Name, i, d)
				}
				seen[d] = true
			}
		}
	}
}

func TestFilterOrder(t *testing.T) {
	order := []int32{0, 1, 2, 3, 4}
	alive := func(c int32) bool { return c%2 == 0 }
	got := FilterOrder(order, alive)
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("filtered order %v", got)
	}
	if out := FilterOrder(order, nil); len(out) != len(order) {
		t.Fatalf("nil predicate must keep the order, got %v", out)
	}
}

// TestExactStepBarriers is the regression test for the 64-cycle
// quantization bug: each step must drain at its precise completion cycle.
// On the XY-routed mesh the step makespan is shift-invariant, so the old
// batched loop's observation — what it used to report — is exactly the new
// one rounded up to the next multiple of its 64-cycle batch.
func TestExactStepBarriers(t *testing.T) {
	s := RingAllReduce(SnakeOrder(2, 2), 256)

	g := buildMesh(t, 2)
	defer g.Net.Close()
	exact, err := RunSteps(g.Net, s, 4, 1<<16, 0, len(s.Steps))
	if err != nil {
		t.Fatal(err)
	}

	// Replay the historical semantics: poll completion only at 64-cycle
	// boundaries.
	q := buildMesh(t, 2)
	defer q.Net.Close()
	var quantized []int64
	counts := make([]int, q.Net.NumChips())
	for c := range counts {
		counts[c] = len(q.Net.ChipNodes[c])
	}
	for _, step := range s.Steps {
		vol := traffic.NewVolumePerChip(step.Pattern, step.Flits, 4, counts, step.Participants)
		q.Net.SetTraffic(vol, 4, netsim.DstSameIndex)
		start := q.Net.Cycle
		for {
			if err := q.Net.Run(64); err != nil {
				t.Fatal(err)
			}
			if vol.Done() && q.Net.InFlight() == 0 {
				break
			}
		}
		quantized = append(quantized, q.Net.Cycle-start)
	}

	var exactSum, quantSum int64
	for i, want := range quantized {
		got := exact.StepCycles[i]
		if rounded := (got + 63) / 64 * 64; rounded != want {
			t.Fatalf("step %d: exact %d rounds to %d, but batched loop observed %d",
				i, got, rounded, want)
		}
		exactSum += got
		quantSum += want
	}
	if exact.Cycles != exactSum {
		t.Fatalf("Cycles %d != step sum %d", exact.Cycles, exactSum)
	}
	if exactSum >= quantSum {
		t.Fatalf("exact makespan %d not below quantized %d — the bug this fixes", exactSum, quantSum)
	}
}

// TestRunPartialParticipants runs a schedule that involves only half the
// chips on every engine: the step barrier must not wait on the silent ones,
// and both the delivered (cycle) and the owed (flow) packet counts charge
// only the participants.
func TestRunPartialParticipants(t *testing.T) {
	for _, eng := range []netsim.EngineKind{netsim.EngineActiveSet, netsim.EngineReference, netsim.EngineFlow} {
		g := buildMesh(t, 2) // 4 chips
		defer g.Net.Close()
		g.Net.SetEngine(eng)
		sub := []int32{0, 3} // one snake-diagonal pair
		s := RingAllReduce(sub, 64)
		res, err := RunSteps(g.Net, s, 4, 1<<14, 0, len(s.Steps))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles <= 0 || len(res.StepCycles) != s.StepCount() {
			t.Fatalf("%v: bad result %+v", eng, res)
		}
		// 2 participants × 2(N−1)=2 steps × ceil(32/(4 nodes × 4 flits)) pkts/node.
		if res.Packets != 2*2*4*2 {
			t.Fatalf("%v: packets %d, want %d", eng, res.Packets, 2*2*4*2)
		}
	}
}

// TestRunStepsNilParticipants: a step without a participant list charges
// every chip, on every engine, exactly as the same step listing all chips
// in ID order does. The flow engine solves the step without stepping the
// network clock; the cycle engines drain it by stepping.
func TestRunStepsNilParticipants(t *testing.T) {
	for _, eng := range []netsim.EngineKind{netsim.EngineActiveSet, netsim.EngineFlow} {
		run := func(participants []int32) Result {
			g := buildMesh(t, 2) // 4 chips of 4 nodes
			defer g.Net.Close()
			g.Net.SetEngine(eng)
			s := Schedule{Name: "ring-step", Steps: []Step{
				{Pattern: traffic.NewRing([]int32{0, 1, 2, 3}, false), Flits: 256, Participants: participants},
			}}
			res, err := RunSteps(g.Net, s, 4, 1<<14, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if stepped := g.Net.Cycle != 0; stepped == (eng == netsim.EngineFlow) {
				t.Fatalf("%v: network clock at %d after a %d-cycle step", eng, g.Net.Cycle, res.Cycles)
			}
			return res
		}
		all, listed := run(nil), run([]int32{0, 1, 2, 3})
		if all.Cycles <= 0 || all.Cycles != listed.Cycles || all.Packets != listed.Packets {
			t.Fatalf("%v: nil participants ran %+v, every chip listed %+v", eng, all, listed)
		}
		// 4 chips × 4 nodes × ceil(256/(4 nodes × 4 flits)) packets.
		if all.Packets != 4*4*16 {
			t.Fatalf("%v: packets %d, want %d", eng, all.Packets, 4*4*16)
		}
	}
}
