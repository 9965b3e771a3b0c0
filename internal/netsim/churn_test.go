package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"sldf/internal/engine"
)

// buildChurnRing constructs a bidirectional ring of n core routers, each the
// terminal of its own chip, with a fault-adaptive route: clockwise unless a
// dead component blocks the clockwise walk to the destination, in which
// case counterclockwise. The adaptivity makes churn survivable without the
// routing package, keeping these tests pure netsim.
func buildChurnRing(t testing.TB, n int, opts NetworkOptions) *Network {
	t.Helper()
	spec := LinkSpec{Delay: 1, Width: 1, Class: HopShortReach, VCs: 2, BufFlits: 16}
	b := NewBuilder()
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddRouter(KindCore)
		b.Router(ids[i]).X = int16(i)
		b.AddTerminal(ids[i], int32(i), 0)
	}
	for i := 0; i < n; i++ {
		b.ConnectBidi(ids[i], ids[(i+1)%n], spec)
	}
	net, err := b.Finalize(opts)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	portToward := func(r *Router, want NodeID) int {
		for o := range net.OutPorts(r) {
			if op := net.OutPorts(r)[o]; op.Link >= 0 && op.Dst == want {
				return o
			}
		}
		return -1
	}
	net.SetRoute(func(net *Network, r *Router, p *Packet) (int, uint8) {
		if r.ID == p.DstNode {
			return int(r.EjectOut), 0
		}
		// Walk clockwise from here to the destination; fall back to the
		// counterclockwise direction if anything on the way is dead.
		dir := 1
		for u := int(r.X); ids[u] != p.DstNode; {
			v := (u + 1) % n
			r2 := &net.Routers[ids[u]]
			o := portToward(r2, ids[v])
			if !net.RouterAlive(ids[v]) || !net.LinkAlive(net.OutPorts(r2)[o].Link) {
				dir = -1
				break
			}
			u = v
		}
		next := ids[(int(r.X)+dir+n)%n]
		return portToward(r, next), 0
	})
	return net
}

// linkBetween finds the directed link src→dst.
func linkBetween(t *testing.T, net *Network, src, dst NodeID) *Link {
	t.Helper()
	r := net.Router(src)
	for o := range net.OutPorts(r) {
		if op := net.OutPorts(r)[o]; op.Link >= 0 && op.Dst == dst {
			return &net.Links[op.Link]
		}
	}
	t.Fatalf("no link %d→%d", src, dst)
	return nil
}

// streamTo emits one packet src→dst every period cycles until stop.
func streamTo(src, dst int32, period, stop int64) Generator {
	return GeneratorFunc(func(now int64, s int32, node int, rng *engine.RNG) int32 {
		if s == src && now < stop && now%period == 0 {
			return dst
		}
		return -1
	})
}

func TestChurnLinkDeathReroutesAndAccounts(t *testing.T) {
	for _, kind := range []EngineKind{EngineActiveSet, EngineReference} {
		t.Run(kind.String(), func(t *testing.T) {
			net := buildChurnRing(t, 6, NetworkOptions{Seed: 1, Workers: 1})
			defer net.Close()
			net.SetEngine(kind)
			// Sever the clockwise path 0→1→2 mid-stream; packets re-route
			// counterclockwise 0→5→4→3→2 and anything on the dead channel
			// is dropped.
			fwd := linkBetween(t, net, 1, 2)
			rev := linkBetween(t, net, 2, 1)
			events := []TimedFault{
				LinkFault(20, fwd.ID, false),
				LinkFault(20, rev.ID, false),
			}
			if err := net.ScheduleChurn(events, DropInFlight); err != nil {
				t.Fatal(err)
			}
			net.SetTraffic(streamTo(0, 2, 3, 60), 4, DstSameIndex)
			net.StartMeasurement()
			if err := net.Run(80); err != nil {
				t.Fatal(err)
			}
			if _, err := net.Drain(200); err != nil {
				t.Fatal(err)
			}
			st := net.Snapshot()
			if st.DeliveredPkts == 0 {
				t.Fatal("nothing delivered")
			}
			if st.InjectedPkts != st.DeliveredPkts+st.DroppedPkts {
				t.Fatalf("conservation broken: injected %d != delivered %d + dropped %d",
					st.InjectedPkts, st.DeliveredPkts, st.DroppedPkts)
			}
			if st.InFlightPkts != 0 {
				t.Fatalf("in-flight %d after drain", st.InFlightPkts)
			}
			if net.ChurnPending() != 0 {
				t.Fatalf("%d timeline events never applied", net.ChurnPending())
			}
			// The counterclockwise detour is 4 hops instead of 2, so the
			// post-death packets must push mean hops above the pristine 2.
			if hops := float64(st.Hops[HopShortReach]) / float64(st.DeliveredPkts); hops <= 2 {
				t.Fatalf("mean SR hops %.2f; re-route never happened", hops)
			}
		})
	}
}

func TestChurnRouterDeathAndRepair(t *testing.T) {
	net := buildChurnRing(t, 6, NetworkOptions{Seed: 2, Workers: 1})
	defer net.Close()
	// Chip 3's router dies at cycle 20 and is repaired at cycle 120:
	// while it is down, traffic addressed to chip 3 is refused at the
	// source; afterwards delivery resumes.
	events := []TimedFault{
		RouterFault(20, net.ChipNodes[3][0], false),
		RouterFault(120, net.ChipNodes[3][0], true),
	}
	if err := net.ScheduleChurn(events, DropInFlight); err != nil {
		t.Fatal(err)
	}
	net.SetTraffic(streamTo(0, 3, 4, 200), 4, DstSameIndex)
	net.StartMeasurement()
	if err := net.Run(100); err != nil {
		t.Fatal(err)
	}
	mid := net.Snapshot()
	if mid.RefusedPkts == 0 {
		t.Fatal("no injections refused while the destination chip was dead")
	}
	if err := net.Run(120); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Drain(200); err != nil {
		t.Fatal(err)
	}
	st := net.Snapshot()
	if st.DeliveredPkts <= mid.DeliveredPkts {
		t.Fatalf("delivery did not resume after repair: %d then %d",
			mid.DeliveredPkts, st.DeliveredPkts)
	}
	if st.InjectedPkts != st.DeliveredPkts+st.DroppedPkts {
		t.Fatalf("conservation broken: injected %d != delivered %d + dropped %d",
			st.InjectedPkts, st.DeliveredPkts, st.DroppedPkts)
	}
	if gotR, gotL := net.DisabledCounts(); gotR != 0 || gotL != 0 {
		t.Fatalf("repair left %d routers / %d links disabled", gotR, gotL)
	}
}

func TestChurnRetrySourceRedelivers(t *testing.T) {
	net := buildChurnRing(t, 6, NetworkOptions{Seed: 3, Workers: 1})
	defer net.Close()
	// Router 1 (a through-hop for the 0→2 clockwise stream) dies mid-run.
	// Under RetrySource every stranded packet re-enters chip 0's injection
	// queue and is re-routed counterclockwise, so nothing is lost.
	events := []TimedFault{RouterFault(15, net.ChipNodes[1][0], false)}
	if err := net.ScheduleChurn(events, RetrySource); err != nil {
		t.Fatal(err)
	}
	net.SetTraffic(streamTo(0, 2, 1, 15), 4, DstSameIndex)
	net.StartMeasurement()
	if err := net.Run(40); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Drain(300); err != nil {
		t.Fatal(err)
	}
	st := net.Snapshot()
	if st.RetriedPkts == 0 {
		t.Fatal("no packets retried; the kill stranded nothing")
	}
	if st.DroppedPkts != 0 {
		t.Fatalf("%d packets dropped under RetrySource with alive endpoints", st.DroppedPkts)
	}
	if st.DeliveredPkts != st.InjectedPkts {
		t.Fatalf("delivered %d of %d injected", st.DeliveredPkts, st.InjectedPkts)
	}
}

// churnRingStats builds the standard churn scenario and returns its final
// statistics: a 6-ring under a two-stream load with a link channel death, a
// router death and a later repair.
func churnRingStats(t *testing.T, kind EngineKind, workers int, withTimeline bool) Stats {
	t.Helper()
	net := buildChurnRing(t, 6, NetworkOptions{Seed: 7, Workers: workers})
	defer net.Close()
	net.SetEngine(kind)
	if withTimeline {
		armChurnRing(t, net)
	}
	gen := GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
		if now >= 150 {
			return -1
		}
		switch src {
		case 0:
			if now%3 == 0 {
				return 2
			}
		case 3:
			if now%4 == 0 {
				return 5
			}
		}
		return -1
	})
	net.SetTraffic(gen, 4, DstSameIndex)
	net.StartMeasurement()
	if err := net.Run(170); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Drain(400); err != nil {
		t.Fatal(err)
	}
	return net.Snapshot()
}

// armChurnRing schedules the standard scenario's timeline on a fresh ring.
func armChurnRing(t *testing.T, net *Network) {
	t.Helper()
	fwd := linkBetween(t, net, 4, 5)
	rev := linkBetween(t, net, 5, 4)
	events := []TimedFault{
		LinkFault(25, fwd.ID, false),
		LinkFault(25, rev.ID, false),
		RouterFault(40, net.ChipNodes[1][0], false),
		LinkFault(90, fwd.ID, true),
		LinkFault(90, rev.ID, true),
		RouterFault(110, net.ChipNodes[1][0], true),
	}
	if err := net.ScheduleChurn(events, RetrySource); err != nil {
		t.Fatal(err)
	}
}

func TestChurnEngineEquivalence(t *testing.T) {
	ref := churnRingStats(t, EngineReference, 1, true)
	if ref.DeliveredPkts == 0 || ref.RetriedPkts+ref.DroppedPkts+ref.RefusedPkts == 0 {
		t.Fatalf("scenario too quiet to compare: %+v", ref)
	}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			act := churnRingStats(t, EngineActiveSet, workers, true)
			if !reflect.DeepEqual(ref, act) {
				t.Fatalf("stats diverged:\nreference: %+v\nactive:    %+v", ref, act)
			}
		})
	}
}

func TestChurnEmptyTimelineBitwise(t *testing.T) {
	// An armed zero-event timeline must change nothing: the churn plumbing
	// (per-step due check, snapshots, counters) has to be invisible when no
	// event ever fires.
	for _, kind := range []EngineKind{EngineActiveSet, EngineReference} {
		t.Run(kind.String(), func(t *testing.T) {
			plain := churnRingStats(t, kind, 1, false)
			armedNet := buildChurnRing(t, 6, NetworkOptions{Seed: 7, Workers: 1})
			defer armedNet.Close()
			armedNet.SetEngine(kind)
			if err := armedNet.ScheduleChurn(nil, DropInFlight); err != nil {
				t.Fatal(err)
			}
			gen := GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
				if now >= 150 {
					return -1
				}
				switch src {
				case 0:
					if now%3 == 0 {
						return 2
					}
				case 3:
					if now%4 == 0 {
						return 5
					}
				}
				return -1
			})
			armedNet.SetTraffic(gen, 4, DstSameIndex)
			armedNet.StartMeasurement()
			if err := armedNet.Run(170); err != nil {
				t.Fatal(err)
			}
			if _, err := armedNet.Drain(400); err != nil {
				t.Fatal(err)
			}
			if got := armedNet.Snapshot(); !reflect.DeepEqual(plain, got) {
				t.Fatalf("armed zero-event timeline changed the run:\nplain: %+v\narmed: %+v", plain, got)
			}
		})
	}
}

func TestChurnResetMidTimelineRestoresBuildState(t *testing.T) {
	for _, kind := range []EngineKind{EngineActiveSet, EngineReference} {
		t.Run(kind.String(), func(t *testing.T) {
			fresh := churnRingStats(t, kind, 1, true)

			net := buildChurnRing(t, 6, NetworkOptions{Seed: 7, Workers: 1})
			defer net.Close()
			net.SetEngine(kind)
			fwd := linkBetween(t, net, 4, 5)
			rev := linkBetween(t, net, 5, 4)
			events := []TimedFault{
				LinkFault(25, fwd.ID, false),
				LinkFault(25, rev.ID, false),
				RouterFault(40, net.ChipNodes[1][0], false),
				LinkFault(90, fwd.ID, true),
				LinkFault(90, rev.ID, true),
				RouterFault(110, net.ChipNodes[1][0], true),
			}
			total := len(events)
			if err := net.ScheduleChurn(events, RetrySource); err != nil {
				t.Fatal(err)
			}
			gen := GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
				if now >= 150 {
					return -1
				}
				switch src {
				case 0:
					if now%3 == 0 {
						return 2
					}
				case 3:
					if now%4 == 0 {
						return 5
					}
				}
				return -1
			})
			// Run into the middle of the timeline: the deaths applied, the
			// repairs still pending.
			net.SetTraffic(gen, 4, DstSameIndex)
			if err := net.Run(60); err != nil {
				t.Fatal(err)
			}
			if r, l := net.DisabledCounts(); r == 0 && l == 0 {
				t.Fatal("deaths never applied; the reset is vacuous")
			}
			net.Reset()
			if r, l := net.DisabledCounts(); r != 0 || l != 0 {
				t.Fatalf("Reset left %d routers / %d links disabled", r, l)
			}
			if net.ChurnPending() != total {
				t.Fatalf("Reset left %d of %d events pending", net.ChurnPending(), total)
			}
			// Replay from scratch: bitwise identical to the fresh build.
			net.SetTraffic(gen, 4, DstSameIndex)
			net.StartMeasurement()
			if err := net.Run(170); err != nil {
				t.Fatal(err)
			}
			if _, err := net.Drain(400); err != nil {
				t.Fatal(err)
			}
			if got := net.Snapshot(); !reflect.DeepEqual(fresh, got) {
				t.Fatalf("reset-mid-churn replay diverged:\nfresh: %+v\nreset: %+v", fresh, got)
			}
		})
	}
}

func TestScheduleChurnValidation(t *testing.T) {
	net := buildChurnRing(t, 4, NetworkOptions{Seed: 1, Workers: 1})
	defer net.Close()
	if err := net.InjectChurn([]TimedFault{RouterFault(0, 0, false)}); err == nil {
		t.Fatal("InjectChurn on an unarmed network succeeded")
	}
	if err := net.ScheduleChurn([]TimedFault{RouterFault(0, 9999, false)}, DropInFlight); err == nil {
		t.Fatal("out-of-range router event accepted")
	}
	if err := net.ScheduleChurn([]TimedFault{LinkFault(-1, 0, false)}, DropInFlight); err == nil {
		t.Fatal("negative-cycle event accepted")
	}
	if err := net.ScheduleChurn(nil, DropInFlight); err != nil {
		t.Fatal(err)
	}
	if !net.ChurnArmed() {
		t.Fatal("zero-event ScheduleChurn did not arm the network")
	}
	if err := net.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := net.ScheduleChurn(nil, DropInFlight); err == nil {
		t.Fatal("mid-run ScheduleChurn accepted")
	}
}

func TestInjectChurnImmediateKill(t *testing.T) {
	net := buildChurnRing(t, 6, NetworkOptions{Seed: 4, Workers: 1})
	defer net.Close()
	if err := net.ScheduleChurn(nil, DropInFlight); err != nil {
		t.Fatal(err)
	}
	net.SetTraffic(streamTo(0, 2, 3, 40), 4, DstSameIndex)
	if err := net.Run(20); err != nil {
		t.Fatal(err)
	}
	victim := net.ChipNodes[2][0]
	if err := net.InjectChurn([]TimedFault{RouterFault(net.Cycle, victim, false)}); err != nil {
		t.Fatal(err)
	}
	if net.RouterAlive(victim) {
		t.Fatal("InjectChurn did not kill the router")
	}
	if net.ChipAlive(2) {
		t.Fatal("chip 2 still alive after its only terminal died")
	}
	if err := net.Run(30); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Drain(200); err != nil {
		t.Fatal(err)
	}
	st := net.Snapshot()
	if st.RefusedPkts == 0 {
		t.Fatal("no injections refused after the destination chip died")
	}
	if st.InjectedPkts != st.DeliveredPkts+st.DroppedPkts {
		t.Fatalf("conservation broken: injected %d != delivered %d + dropped %d",
			st.InjectedPkts, st.DeliveredPkts, st.DroppedPkts)
	}
}
