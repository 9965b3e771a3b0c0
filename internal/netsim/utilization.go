package netsim

// LinkUtil summarizes one link's load over the measurement window. Link
// points into Network.Links.
type LinkUtil struct {
	Link        *Link
	Flits       int64
	Utilization float64 // flits / (width × window cycles), 1.0 = saturated
}

// LinkUtilization returns per-class aggregate utilization and the k most
// loaded links, for bottleneck analysis (e.g. showing the C-group mesh
// bisection saturating in Fig. 12 while global channels idle). Dead
// links carry no flits and contribute no capacity: class utilization is
// relative to the surviving links of the class. Each link's load is read
// through WindowFlits, from whichever engine ran the window.
//
// The top-k list is kept by a single running-selection pass over the flat
// link slice and returned in network-owned scratch, so a measurement loop
// calling this every load point allocates nothing; the slice is valid until
// the next call.
func (n *Network) LinkUtilization(k int) (byClass [NumHopClasses]float64, hottest []LinkUtil) {
	end := n.measEnd
	if n.measuring || end > n.Cycle {
		end = n.Cycle
	}
	window := end - n.measStart
	if window <= 0 {
		return byClass, nil
	}
	var classFlits, classCap [NumHopClasses]float64
	if k > len(n.Links) {
		k = len(n.Links)
	}
	top := n.utilScratch[:0]
	if cap(top) < k {
		top = make([]LinkUtil, 0, k)
	}
	// hotter is the ranking: utilization descending, link ID ascending.
	hotter := func(a, b *LinkUtil) bool {
		if a.Utilization != b.Utilization {
			return a.Utilization > b.Utilization
		}
		return a.Link.ID < b.Link.ID
	}
	for i := range n.Links {
		l := &n.Links[i]
		if !n.LinkAlive(l.ID) {
			continue
		}
		capacity := float64(l.Width) * float64(window)
		flits := n.WindowFlits(l.ID)
		u := LinkUtil{Link: l, Flits: flits}
		if capacity > 0 {
			u.Utilization = float64(flits) / capacity
		}
		classFlits[l.Class] += float64(flits)
		classCap[l.Class] += capacity
		if len(top) < k {
			top = append(top, u)
		} else if k > 0 && hotter(&u, &top[k-1]) {
			top[k-1] = u
		} else {
			continue
		}
		for j := len(top) - 1; j > 0 && hotter(&top[j], &top[j-1]); j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	for c := range byClass {
		if classCap[c] > 0 {
			byClass[c] = classFlits[c] / classCap[c]
		}
	}
	n.utilScratch = top
	return byClass, top
}

// WindowFlits returns the flits link id carried during the measurement
// window. The cycle engines count them in the link's cycle record; the flow
// engine reads its last solve's per-link sum, rounded to whole flits. A
// network no engine has run, or one just Reset, reads zero.
func (n *Network) WindowFlits(id int32) int64 {
	switch {
	case n.engineKind == EngineFlow:
		if n.flow == nil || !n.flow.accum.published {
			return 0
		}
		return int64(n.flow.accum.linkFlits[id] + 0.5)
	case n.cyc != nil:
		return n.cyc.links[id].winFlits
	}
	return 0
}
