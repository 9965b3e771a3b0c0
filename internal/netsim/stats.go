package netsim

import "math/bits"

// LatencyHist is a compact HDR-style histogram of packet latencies in
// cycles: 64 power-of-two major buckets × 8 linear sub-buckets, giving
// ≤12.5% relative error on quantiles at any magnitude.
type LatencyHist struct {
	Buckets [64 * 8]int64
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 8 {
		return int(v)
	}
	// Major bucket = position of highest set bit; sub-bucket = next 3 bits.
	hi := bits.Len64(uint64(v)) - 1
	major := hi - 2 // v>=8 means hi>=3, major>=1
	sub := (v >> uint(hi-3)) & 7
	idx := major*8 + int(sub)
	if idx >= len(LatencyHist{}.Buckets) {
		idx = len(LatencyHist{}.Buckets) - 1
	}
	return idx
}

// bucketLow returns the lower bound of bucket idx (inverse of bucketIndex).
func bucketLow(idx int) int64 {
	if idx < 8 {
		return int64(idx)
	}
	major := idx / 8
	sub := idx % 8
	hi := major + 2
	return 1<<uint(hi) | int64(sub)<<uint(hi-3)
}

// Add records one latency sample.
func (h *LatencyHist) Add(v int64) {
	h.Buckets[bucketIndex(v)]++
	h.Count++
	h.Sum += v
	if h.Count == 1 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
}

// Merge adds all samples of o into h.
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o.Count == 0 {
		return
	}
	for i, c := range o.Buckets {
		h.Buckets[i] += c
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
}

// Mean returns the mean latency, or 0 if empty.
func (h *LatencyHist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an approximation of the q-quantile (0<=q<=1).
func (h *LatencyHist) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	if target >= h.Count {
		target = h.Count - 1
	}
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		if cum > target {
			return bucketLow(i)
		}
	}
	return h.Max
}

// shardStats accumulates results on one shard without synchronization.
type shardStats struct {
	injectedPkts  int64 // all time
	deliveredPkts int64 // all time
	droppedPkts   int64 // stranded by churn and discarded
	retriedPkts   int64 // stranded by churn and re-enqueued at the source
	refusedPkts   int64 // injection attempts refused (destination chip dead)
	winFlits      int64 // flits ejected during the measurement window
	winPkts       int64 // packets created in window and delivered
	winCreated    int64 // packets created in window; like winPkts, cleared only by Reset
	winHops       [NumHopClasses]int64
	winNetLatSum  int64 // latency excluding source queueing
	lat           LatencyHist
	moved         int64 // packets that traversed a crossbar this cycle
	pktSeq        uint64
	// free holds recycled arena slots owned by this shard (see packetArena).
	free []PacketRef
}

// Stats is a merged snapshot of simulation results.
type Stats struct {
	Cycles        int64 // measured cycles
	Chips         int   // number of terminals
	InjectedPkts  int64 // since reset (all time)
	DeliveredPkts int64 // since reset (all time)
	InFlightPkts  int64
	// Churn accounting (zero — and omitted from JSON, keeping static-build
	// fixtures byte-stable — unless a fault timeline stranded packets).
	// DroppedPkts were discarded in flight; RetriedPkts were re-enqueued at
	// their source terminal (RetrySource policy; a packet retried k times
	// counts k); RefusedPkts are injection attempts refused because the
	// destination chip had lost its last terminal.
	DroppedPkts   int64 `json:",omitempty"`
	RetriedPkts   int64 `json:",omitempty"`
	RefusedPkts   int64 `json:",omitempty"`
	WindowFlits   int64 // flits delivered during the window
	WindowPkts    int64 // packets created in window and delivered
	Hops          [NumHopClasses]int64
	NetLatencySum int64
	Latency       LatencyHist
	// WatchdogTrips counts how many times the progress watchdog fired
	// (Run/Drain returned ErrDeadlock) since the last reset.
	WatchdogTrips int64
}

// MeanLatency returns the mean end-to-end latency in cycles of packets
// created during the measurement window.
func (s *Stats) MeanLatency() float64 { return s.Latency.Mean() }

// MeanNetLatency is the mean latency excluding source queue waiting time.
func (s *Stats) MeanNetLatency() float64 {
	if s.WindowPkts == 0 {
		return 0
	}
	return float64(s.NetLatencySum) / float64(s.WindowPkts)
}

// Throughput returns accepted traffic in flits/cycle/chip over the window.
func (s *Stats) Throughput() float64 {
	if s.Cycles == 0 || s.Chips == 0 {
		return 0
	}
	return float64(s.WindowFlits) / float64(s.Cycles) / float64(s.Chips)
}

// MeanHops returns the average per-packet hop count for the given class
// over window packets.
func (s *Stats) MeanHops(c HopClass) float64 {
	if s.WindowPkts == 0 {
		return 0
	}
	return float64(s.Hops[c]) / float64(s.WindowPkts)
}
