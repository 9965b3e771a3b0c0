package netsim

import (
	"errors"
	"slices"
)

// Fault-state routing. Fault-aware routing is a pure function of which
// components are alive, so every routed network keys both the routing and
// the flow solver's route traces by that fault state — SetFaultRouting
// installs a builder, SetRoute one that ignores the state. The fault state
// is the set of components whose Disabled flag differs from the flags
// at install time (core.Build installs at the churn base). The key is kept
// incrementally from the components each churn batch actually toggles. A
// churn batch or Reset that enters a state seen before reinstalls its
// routing without calling the builder and serves its flows without
// re-tracing; only a new state pays for a build and a full trace.

// FaultRouteBuilder builds fault-aware routing for the network's current
// component state (Disabled flags and chip tables): the route function and
// the keep-predicate SanitizeInFlight applies to packets in flight when the
// network switches to the routing mid-run (nil when every packet stays
// routable). It must be a pure function of that state: the network calls it
// once per distinct state and reuses the result whenever the state recurs.
type FaultRouteBuilder func() (RouteFunc, func(*Router, *Packet) bool, error)

// maxRetainedRoutes caps the fault states other than the base whose built
// routing is kept; beyond it the least recently entered one is dropped.
// The base state's routing is always kept. A dropped routing costs one
// builder call when its state recurs, never a re-trace.
const maxRetainedRoutes = 8

// faultState is one fault state the network has entered: its key and, unless
// the memo dropped it, its routing.
type faultState struct {
	key   []int32 // sorted element ids (link id, or len(Links)+router id)
	route RouteFunc
	keep  func(*Router, *Packet) bool
	used  uint64 // faultRouting.clock when last entered
}

// faultRouting is the installed fault-state routing.
type faultRouting struct {
	build  FaultRouteBuilder
	states []faultState // states[0] is the base state (empty key)
	cur    int32
	// delta is the current state's key, maintained from churn toggles.
	delta    []int32
	clock    uint64
	retained int // states other than the base holding a built routing
}

// SetFaultRouting installs fault-aware routing that follows the network's
// fault state. build runs now, for the current state, which becomes the
// base state; afterwards it runs only when a churn batch enters a state the
// network has not routed before (or whose routing the memo dropped). Every
// churn batch, new state or not, sanitizes in-flight packets with the
// entered state's keep-predicate; Reset returns to the base state's
// routing. Like SetRoute, installing discards every cached route trace.
//
// Call it before the first Step, on a network whose armed timeline (if any)
// has applied no event since its last Reset.
func (n *Network) SetFaultRouting(build FaultRouteBuilder) error {
	if n.churn != nil && n.churn.appliedAny {
		return errors.New("netsim: SetFaultRouting on a network whose churn timeline has applied events; Reset first")
	}
	route, keep, err := build()
	if err != nil {
		return err
	}
	n.installRouting(build, route, keep)
	return nil
}

// installRouting makes build's result for the current state (route, keep)
// the base state of a fresh fault-state routing, forgetting every state
// and cached route trace of the previous install.
func (n *Network) installRouting(build FaultRouteBuilder, route RouteFunc, keep func(*Router, *Packet) bool) {
	n.route = route
	n.faultRoute = &faultRouting{build: build, states: []faultState{{route: route, keep: keep}}}
	n.flowInvalidateAll()
	if n.flow != nil {
		n.flow.cache.resetStates()
	}
}

// toggle folds components that flipped alive<->dead into the current
// state's key.
func (fr *faultRouting) toggle(routers []NodeID, links []int32, numLinks int) {
	for _, l := range links {
		fr.flip(l)
	}
	for _, r := range routers {
		fr.flip(int32(numLinks) + int32(r))
	}
}

func (fr *faultRouting) flip(el int32) {
	if i, found := slices.BinarySearch(fr.delta, el); found {
		fr.delta = slices.Delete(fr.delta, i, i+1)
	} else {
		fr.delta = slices.Insert(fr.delta, i, el)
	}
}

// lookup returns the index of the current state, registering it (without
// routing) when new. Keys are compared exactly; a timeline enters few
// states, and a routing build dwarfs the scan.
func (fr *faultRouting) lookup() int32 {
	for s := range fr.states {
		if slices.Equal(fr.states[s].key, fr.delta) {
			return int32(s)
		}
	}
	fr.states = append(fr.states, faultState{key: slices.Clone(fr.delta)})
	return int32(len(fr.states) - 1)
}

// enterFaultState installs the routing of the network's current fault
// state, calling the builder only when the state has none, points the trace
// cache at the state's traces, and, when sanitize is set, retires in-flight
// packets with the state's keep-predicate.
func (n *Network) enterFaultState(sanitize bool) error {
	fr := n.faultRoute
	id := fr.lookup()
	st := &fr.states[id]
	if st.route == nil {
		route, keep, err := fr.build()
		if err != nil {
			return err
		}
		st.route, st.keep = route, keep
		fr.retained++
	}
	fr.clock++
	st.used = fr.clock
	fr.cur = id
	n.route = st.route
	if n.flow != nil {
		n.flow.cache.setState(id)
	}
	if sanitize && st.keep != nil {
		n.SanitizeInFlight(st.keep)
	}
	for fr.retained > maxRetainedRoutes {
		fr.dropLRU()
	}
	return nil
}

// dropLRU releases the routing of the least recently entered state other
// than the base and the current one.
func (fr *faultRouting) dropLRU() {
	victim := int32(-1)
	for s := int32(1); s < int32(len(fr.states)); s++ {
		st := &fr.states[s]
		if s == fr.cur || st.route == nil {
			continue
		}
		if victim < 0 || st.used < fr.states[victim].used {
			victim = s
		}
	}
	fr.states[victim].route, fr.states[victim].keep = nil, nil
	fr.retained--
}
