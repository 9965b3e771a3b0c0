package netsim

// timedPacket is a packet in flight on a link, ready for delivery at `at`.
// It holds an arena ref, not a pointer, so link pipelines are invisible to
// the garbage collector.
type timedPacket struct {
	at  int64
	ref PacketRef
}

// timedCredit is a credit message returning buffer space to the upstream
// router: `flits` flits freed on virtual channel `vc`, visible at `at`.
type timedCredit struct {
	at    int64
	flits int32
	vc    uint8
}

// packetFIFO is a growable ring buffer of timed packets with one producer
// and one consumer per simulation phase (guaranteed by the two-phase cycle).
type packetFIFO struct {
	buf  []timedPacket
	head int
	n    int
}

func (f *packetFIFO) push(ref PacketRef, at int64) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = timedPacket{ref: ref, at: at}
	f.n++
}

func (f *packetFIFO) grow() {
	size := len(f.buf) * 2
	if size == 0 {
		size = 8
	}
	nb := make([]timedPacket, size)
	for i := 0; i < f.n; i++ {
		nb[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
	}
	f.buf = nb
	f.head = 0
}

// popReady removes and returns the front packet's ref if it is deliverable
// at cycle `now`; ok reports whether a packet was returned.
func (f *packetFIFO) popReady(now int64) (ref PacketRef, ok bool) {
	if f.n == 0 {
		return NilRef, false
	}
	front := &f.buf[f.head]
	if front.at > now {
		return NilRef, false
	}
	ref = front.ref
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return ref, true
}

func (f *packetFIFO) len() int { return f.n }

// frontAt returns the delivery cycle of the earliest queued packet; the
// queue must be non-empty.
func (f *packetFIFO) frontAt() int64 { return f.buf[f.head].at }

// clear drops all queued packets, keeping the ring's capacity.
func (f *packetFIFO) clear() {
	f.head, f.n = 0, 0
}

// creditFIFO is the same ring-buffer structure for credit messages.
type creditFIFO struct {
	buf  []timedCredit
	head int
	n    int
}

func (f *creditFIFO) push(c timedCredit) {
	if f.n == len(f.buf) {
		size := len(f.buf) * 2
		if size == 0 {
			size = 8
		}
		nb := make([]timedCredit, size)
		for i := 0; i < f.n; i++ {
			nb[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
		}
		f.buf = nb
		f.head = 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = c
	f.n++
}

// clear drops all queued credits, keeping the ring's capacity.
func (f *creditFIFO) clear() { f.head, f.n = 0, 0 }

// frontAt returns the delivery cycle of the earliest queued credit; the
// queue must be non-empty.
func (f *creditFIFO) frontAt() int64 { return f.buf[f.head].at }

func (f *creditFIFO) popReady(now int64) (c timedCredit, ok bool) {
	if f.n == 0 {
		return timedCredit{}, false
	}
	front := &f.buf[f.head]
	if front.at > now {
		return timedCredit{}, false
	}
	c = *front
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return c, true
}

// Link is a unidirectional physical channel between two router ports. It
// holds only topology, what routing and the flow solver read: the packet
// and credit pipelines the cycle engines run over it, and its window flit
// count, live in its linkCycle record (see Network.ensureCycleState), and
// the flow solver keeps its own per-link sums (see Network.WindowFlits).
// Link holds no pointers, so the GC never scans the link table.
type Link struct {
	ID    int32
	Src   NodeID // source router
	Dst   NodeID // destination router
	Delay int32  // cycles of wire latency
	Width int32  // flits per cycle (bandwidth)
	Class HopClass
	VCs   uint8 // virtual channels on the downstream input port
	// BufFlits is the downstream buffer depth per VC; Reset restores the
	// upstream credit counters to this value.
	BufFlits int32
	// SrcPort/DstPort are the port indices on the endpoint routers.
	SrcPort int16
	DstPort int16
}

// serCycles returns the serialization time of size flits on this link.
func (l *Link) serCycles(size int32) int64 {
	return int64((size + l.Width - 1) / l.Width)
}
