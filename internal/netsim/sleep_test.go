package netsim

import (
	"testing"
	"unsafe"

	"sldf/internal/engine"
)

// TestVCQueueStays48Bytes pins the queue record's size: the cached head
// size and the lookahead count live in padding.
func TestVCQueueStays48Bytes(t *testing.T) {
	if got := unsafe.Sizeof(vcQueue{}); got != 48 {
		t.Fatalf("vcQueue is %d bytes, want 48", got)
	}
}

// decided returns a queue holding refs 1..n whose head and the next ahead
// packets carry cached decisions naming their own ref as the output port.
func decided(n, ahead int) (vcQueue, []routeDecision) {
	var q vcQueue
	for i := 1; i <= n; i++ {
		q.push(PacketRef(i), 4)
	}
	q.routed = true
	q.route = routeDecision{size: 4, out: 1}
	la := make([]routeDecision, idealLookahead)
	for i := 1; i <= ahead; i++ {
		la[i-1] = routeDecision{size: 4, out: int16(i + 1)}
	}
	q.ahead = uint8(ahead)
	return q, la
}

// checkDecisions fails unless every cached decision of q names the ref of
// the packet it sits beside.
func checkDecisions(t *testing.T, q *vcQueue, la []routeDecision, wantAhead int, headRouted bool) {
	t.Helper()
	if q.routed != headRouted {
		t.Fatalf("head routed = %v, want %v", q.routed, headRouted)
	}
	if q.routed && PacketRef(q.route.out) != q.front() {
		t.Fatalf("head decision %d sits beside ref %d", q.route.out, q.front())
	}
	if int(q.ahead) != wantAhead {
		t.Fatalf("ahead = %d, want %d", q.ahead, wantAhead)
	}
	for i := 1; i <= int(q.ahead); i++ {
		if PacketRef(la[i-1].out) != q.at(i) {
			t.Fatalf("position %d: decision %d sits beside ref %d", i, la[i-1].out, q.at(i))
		}
	}
}

func TestVCQueueDecisionsFollowPackets(t *testing.T) {
	q, la := decided(6, 4) // refs 1..6; decisions for refs 1..5

	q.removeAt(2, 4, la) // drops ref 3 from inside the cached window
	checkDecisions(t, &q, la, 3, true)

	q.removeAt(4, 4, la) // drops ref 6, beyond the window: nothing shifts
	checkDecisions(t, &q, la, 3, true)

	q.pop(4, la) // ref 2's lookahead decision becomes the head's
	checkDecisions(t, &q, la, 2, true)

	q.pop(4, la)
	q.pop(4, la) // ref 5 heads, nothing cached behind it
	checkDecisions(t, &q, la, 0, true)

	q, la = decided(3, 0)
	q.pop(4, la) // the new head has no cached decision to inherit
	checkDecisions(t, &q, la, 0, false)
}

func TestVCQueueClearInvalidatesDecisions(t *testing.T) {
	q, la := decided(5, 4)
	q.clear()
	if q.routed || q.ahead != 0 {
		t.Fatalf("clear kept decisions: routed=%v ahead=%d", q.routed, q.ahead)
	}
	q.push(7, 4)
	q.push(8, 4)
	q.pop(4, la) // a stale table entry must not be promoted
	if q.routed {
		t.Fatal("pop promoted a decision that clear invalidated")
	}
}

// TestIdealDecisionsMatchFreshRoutes runs an ideal switch under saturating
// load and checks, every cycle, that each cached decision — head and
// lookahead — is what routing the packet it sits beside returns now.
func TestIdealDecisionsMatchFreshRoutes(t *testing.T) {
	net, hub := buildStar(t, 6, true, 2)
	defer net.Close()
	net.SetTraffic(GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
		d := rng.Int31n(6)
		if d == src {
			return -1
		}
		return d
	}), 4, DstSameIndex)
	r := net.Router(hub)
	deep := 0
	for cycle := 0; cycle < 400; cycle++ {
		net.Step()
		rc := &net.cyc.routers[hub]
		for in := range rc.in {
			for vc := range rc.in[in].vcs {
				q := &rc.in[in].vcs[vc]
				if q.empty() {
					continue
				}
				check := func(pos int, d routeDecision) {
					p := net.arena.at(q.at(pos))
					out, ovc := net.route(net, r, p)
					if d != (routeDecision{size: p.Size, out: int16(out), vc: ovc}) {
						t.Fatalf("cycle %d queue (%d,%d) position %d: cached %+v, fresh (%d,%d,size %d)",
							net.Cycle, in, vc, pos, d, out, ovc, p.Size)
					}
				}
				if q.routed {
					check(0, q.route)
				}
				for i := 1; i <= int(q.ahead); i++ {
					check(i, rc.lookaheadOf(in, vc)[i-1])
				}
				deep = max(deep, int(q.ahead))
			}
		}
	}
	if deep < 2 {
		t.Fatalf("lookahead cache never held more than %d decisions; the check is vacuous", deep)
	}
}

// blockedHub builds a three-leaf star with an input-queued hub whose
// output to leaf 1 has no credits, sends one packet from leaf 0 to leaf 1
// and steps until the hub holds it, asleep. churn arms an empty fault
// timeline so links can be killed and revived. It returns the hub's
// router and cycle record.
func blockedHub(t *testing.T, kind EngineKind, churn bool) (*Network, *Router, *routerCycle) {
	t.Helper()
	net, hub := buildStar(t, 3, false, 1)
	t.Cleanup(net.Close)
	if churn {
		if err := net.ScheduleChurn(nil, DropInFlight); err != nil {
			t.Fatal(err)
		}
	}
	net.SetEngine(kind)
	r := net.Router(hub)
	rc := &net.cyc.routers[hub]
	rc.out[1].credits[0] = 0
	net.SetTraffic(GeneratorFunc(func(now int64, src int32, node int, rng *engine.RNG) int32 {
		if now == 0 && src == 0 {
			return 1
		}
		return -1
	}), 4, DstSameIndex)
	for i := 0; i < 10; i++ {
		net.Step()
	}
	if rc.active != 1 {
		t.Fatalf("hub holds %d queues, want the blocked packet's", rc.active)
	}
	assertAsleep(t, net, r)
	if rc.creditWait != 1<<1 {
		t.Fatalf("creditWait = %b, want only output 1", rc.creditWait)
	}
	return net, r, rc
}

// assertAsleep fails unless r sleeps until an event and, under the
// active-set engine, is off its shard's active set.
func assertAsleep(t *testing.T, net *Network, r *Router) {
	t.Helper()
	rc := &net.cyc.routers[r.ID]
	if rc.nextAlloc != allocNever || !rc.eventWait {
		t.Fatalf("hub not asleep on events: nextAlloc=%d eventWait=%v", rc.nextAlloc, rc.eventWait)
	}
	if net.engineKind == EngineActiveSet && net.cyc.active[0].routers.Has(int(r.ID)) {
		t.Fatal("event-sleeping hub still on the active set")
	}
}

// returnCredit queues one packet's worth of credit for output o of the
// router with cycle record rc, deliverable this cycle, through the engine's
// normal credit path.
func returnCredit(net *Network, rc *routerCycle, o int) {
	l := rc.out[o].link
	l.credit.push(timedCredit{at: net.Cycle, flits: 4, vc: 0})
	if net.engineKind == EngineActiveSet {
		net.cyc.active[0].stageCreditLink(l)
	}
}

// runDelivered steps until one packet is delivered, failing after limit.
func runDelivered(t *testing.T, net *Network, limit int) {
	t.Helper()
	for i := 0; i < limit; i++ {
		net.Step()
		if net.Snapshot().DeliveredPkts == 1 {
			return
		}
	}
	t.Fatalf("blocked packet not delivered within %d cycles", limit)
}

var cycleEngines = []EngineKind{EngineActiveSet, EngineReference}

func TestCreditBlockedRouterSleepsUntilItsCredit(t *testing.T) {
	for _, kind := range cycleEngines {
		t.Run(kind.String(), func(t *testing.T) {
			net, r, rc := blockedHub(t, kind, false)
			// A credit to output 2 (as if a packet had left on it) cannot
			// unblock output 1's request.
			rc.out[2].credits[0] -= 4
			returnCredit(net, rc, 2)
			if net.drainCreditLink(rc.out[2].link, net.Cycle) {
				t.Fatal("credit to an unblocked output woke the hub")
			}
			for i := 0; i < 5; i++ {
				net.Step()
			}
			assertAsleep(t, net, r)
			if net.Snapshot().DeliveredPkts != 0 {
				t.Fatal("packet delivered without credits")
			}
			// A credit to the blocked output wakes it and the packet leaves.
			returnCredit(net, rc, 1)
			runDelivered(t, net, 10)
		})
	}
}

func TestDeadLinkBlockedRouterWakesOnRevival(t *testing.T) {
	for _, kind := range cycleEngines {
		t.Run(kind.String(), func(t *testing.T) {
			net, r, rc := blockedHub(t, kind, true)
			link := net.OutPorts(r)[1].Link
			rc.out[1].credits[0] = net.Links[link].BufFlits
			if err := net.InjectChurn([]TimedFault{LinkFault(net.Cycle, link, false)}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				net.Step()
			}
			assertAsleep(t, net, r)
			if err := net.InjectChurn([]TimedFault{LinkFault(net.Cycle, link, true)}); err != nil {
				t.Fatal(err)
			}
			if rc.nextAlloc != 0 {
				t.Fatalf("revival left the hub asleep (nextAlloc=%d)", rc.nextAlloc)
			}
			runDelivered(t, net, 10)
		})
	}
}

func TestSanitizeInFlightWakesAndStalesBlockedRouter(t *testing.T) {
	for _, kind := range cycleEngines {
		t.Run(kind.String(), func(t *testing.T) {
			net, r, rc := blockedHub(t, kind, true)
			q := &rc.in[0].vcs[0] // the hub's input from leaf 0
			if !q.routed {
				t.Fatal("blocked packet has no cached decision")
			}
			if n := net.SanitizeInFlight(func(*Router, *Packet) bool { return true }); n != 0 {
				t.Fatalf("sanitize stranded %d packets, want none", n)
			}
			if q.routed || q.ahead != 0 {
				t.Fatal("sanitize kept a cached decision")
			}
			if !rc.stale || rc.nextAlloc != 0 {
				t.Fatalf("sanitize left the hub asleep: stale=%v nextAlloc=%d", rc.stale, rc.nextAlloc)
			}
			if kind == EngineActiveSet && !net.cyc.active[0].routers.Has(int(r.ID)) {
				t.Fatal("woken hub missing from the active set")
			}
			// Until a pass re-routes it, a stale router wakes on any credit:
			// put it back to sleep and return a credit to output 2.
			rc.nextAlloc = allocNever
			rc.out[2].credits[0] -= 4
			returnCredit(net, rc, 2)
			if !net.drainCreditLink(rc.out[2].link, net.Cycle) {
				t.Fatal("credit to an unblocked output did not wake the stale hub")
			}
			net.Step()
			if rc.stale || !q.routed {
				t.Fatalf("pass left the hub stale=%v routed=%v", rc.stale, q.routed)
			}
			assertAsleep(t, net, r)
		})
	}
}
