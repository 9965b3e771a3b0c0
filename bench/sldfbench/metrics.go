package main

import (
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports: what a user of the
// simulator waits for and pays for.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"first_point_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run reports, split by the layer the
// time or count belongs to. README.md maps each to the end-to-end metric
// it should move and the workload where it should stay flat.
var perLayer = []metricDef{
	// Build: topology, routing tables, the whole core.Build.
	{"topology.build_s", "s"},
	{"routing.tables_s", "s"},
	{"core.build_s", "s"},
	{"core.heap_b_per_chip", "B"},
	{"core.build_alloc_mb", "MiB"},
	// Cycle engine.
	{"netsim.cycle.warmup_s", "s"},
	{"netsim.cycle.measure_s", "s"},
	{"netsim.cycle.drain_s", "s"},
	{"netsim.cycle.ns_per_router_cycle", "ns"},
	{"netsim.cycle.alloc_b_per_point", "B"},
	{"netsim.cycle.delivered_pkts", "count"},
	{"netsim.cycle.arena_slots", "count"},
	{"netsim.watchdog_trips", "count"},
	{"netsim.dropped_pkts", "count"},
	{"netsim.retried_pkts", "count"},
	{"netsim.refused_pkts", "count"},
	// Flow solver.
	{"netsim.flow.trace_s", "s"},
	{"netsim.flow.waterfill_s", "s"},
	{"netsim.flow.hist_s", "s"},
	{"netsim.flow.other_s", "s"},
	{"netsim.flow.traces", "count"},
	{"netsim.flow.cache_hits", "count"},
	{"netsim.flow.evicted", "count"},
	{"netsim.flow.full_invalidations", "count"},
	{"netsim.flow.segments", "count"},
	{"netsim.flow.waterfill_rounds", "count"},
	{"netsim.flow.transpose_builds", "count"},
	{"netsim.flow.hit_ratio", "ratio"},
	{"netsim.flow.cold_point_s", "s"},
	{"netsim.flow.warm_point_s_p50", "s"},
	{"netsim.flow.warm_points", "count"},
	// Point stores and the coordinator/worker protocol.
	{"campaign.store_get_us_p50", "us"},
	{"campaign.store_get_us_p90", "us"},
	{"campaign.store_put_us_p50", "us"},
	{"campaign.store_put_us_p90", "us"},
	{"campaign.store_hits", "count"},
	{"campaign.store_misses", "count"},
	{"campaign.store_puts", "count"},
	{"campaign.replay_ms", "ms"},
	{"remote.rtt_ms_p50", "ms"},
	{"remote.rtt_ms_p90", "ms"},
	{"remote.requests", "count"},
	{"remote.req_kb", "KiB"},
	{"remote.resp_kb", "KiB"},
	{"remote.transport_errors", "count"},
	{"remote.daemon_store_hits", "count"},
	{"remote.replay_ms", "ms"},
	// The cost of tracing itself: traced over untraced pass wall, minus one.
	{"trace.overhead_frac", "ratio"},
}

// Span names recorded at the layer boundaries.
const (
	spanPass          = "pass"
	spanSystem        = "system"
	spanTopology      = "topology.build"
	spanRouting       = "routing.tables"
	spanCoreBuild     = "core.build"
	spanPoint         = "point"
	spanWarmup        = "netsim.cycle.warmup"
	spanMeasure       = "netsim.cycle.measure"
	spanDrain         = "netsim.cycle.drain"
	spanFlowTrace     = "netsim.flow.trace"
	spanFlowWaterfill = "netsim.flow.waterfill"
	spanFlowHist      = "netsim.flow.hist"
	spanCold          = "campaign.cold"
	spanDiskReplay    = "campaign.replay"
	spanDaemonReplay  = "remote.replay"
	spanDaemonStart   = "remote.daemons"
	spanCheck         = "remote.check"
	spanExperiment    = "experiment"
	spanStoreGet      = "campaign.store.get"
	spanStorePut      = "campaign.store.put"
	spanDaemonGet     = "remote.daemon.store.get"
	spanDaemonPut     = "remote.daemon.store.put"
	spanHTTP          = "remote.http"
)

// layerMetrics derives the per-pass layer metrics from one traced pass's
// spans. Tail percentiles are not computed here: they pool samples across
// every traced pass (see pooledMetrics).
func layerMetrics(spans []span) map[string]float64 {
	self := selfTimes(spans)
	by := map[string][]span{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
	}
	sumDur := func(name string) float64 {
		var d time.Duration
		for _, s := range by[name] {
			d += s.dur()
		}
		return d.Seconds()
	}
	sumCount := func(name, counter string) float64 {
		v := 0.0
		for _, s := range by[name] {
			v += s.Counters[counter]
		}
		return v
	}
	medianDur := func(ss []span) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = s.dur().Seconds()
		}
		return median(xs)
	}

	m := map[string]float64{
		"topology.build_s":    sumDur(spanTopology),
		"routing.tables_s":    sumDur(spanRouting),
		"core.build_s":        sumDur(spanCoreBuild),
		"core.build_alloc_mb": sumCount(spanCoreBuild, "alloc_b") / (1 << 20),

		"netsim.cycle.warmup_s":  sumDur(spanWarmup),
		"netsim.cycle.measure_s": sumDur(spanMeasure),
		"netsim.cycle.drain_s":   sumDur(spanDrain),
		"netsim.watchdog_trips":  sumCount(spanPoint, "watchdog_trips"),
		"netsim.dropped_pkts":    sumCount(spanPoint, "dropped_pkts"),
		"netsim.retried_pkts":    sumCount(spanPoint, "retried_pkts"),
		"netsim.refused_pkts":    sumCount(spanPoint, "refused_pkts"),

		"netsim.flow.trace_s":            sumDur(spanFlowTrace),
		"netsim.flow.waterfill_s":        sumDur(spanFlowWaterfill),
		"netsim.flow.hist_s":             sumDur(spanFlowHist),
		"netsim.flow.traces":             sumCount(spanPoint, "traces"),
		"netsim.flow.cache_hits":         sumCount(spanPoint, "cache_hits"),
		"netsim.flow.evicted":            sumCount(spanPoint, "evicted"),
		"netsim.flow.full_invalidations": sumCount(spanPoint, "full_invalidations"),
		"netsim.flow.segments":           sumCount(spanPoint, "segments"),
		"netsim.flow.waterfill_rounds":   sumCount(spanPoint, "waterfill_rounds"),
		"netsim.flow.transpose_builds":   sumCount(spanPoint, "transpose_builds"),

		"campaign.store_hits":      sumCount(spanStoreGet, "hit"),
		"campaign.store_misses":    float64(len(by[spanStoreGet])) - sumCount(spanStoreGet, "hit"),
		"campaign.store_puts":      float64(len(by[spanStorePut])),
		"campaign.replay_ms":       medianDur(by[spanDiskReplay]) * 1e3,
		"remote.requests":          float64(len(by[spanHTTP])),
		"remote.req_kb":            sumCount(spanHTTP, "req_b") / 1024,
		"remote.resp_kb":           sumCount(spanHTTP, "resp_b") / 1024,
		"remote.transport_errors":  sumCount(spanHTTP, "error"),
		"remote.daemon_store_hits": sumCount(spanPass, "daemon_store_hits"),
		"remote.replay_ms":         medianDur(by[spanDaemonReplay]) * 1e3,
	}
	if chips := sumCount(spanCoreBuild, "chips"); chips > 0 {
		m["core.heap_b_per_chip"] = sumCount(spanCoreBuild, "heap_b") / chips
	}
	if hits, traces := m["netsim.flow.cache_hits"], m["netsim.flow.traces"]; hits+traces > 0 {
		m["netsim.flow.hit_ratio"] = hits / (hits + traces)
	}

	// Per-point figures, split by engine.
	var cycleAlloc []float64
	var routerCycles, delivered, arena, other float64
	var cold, warm []span
	for _, p := range by[spanPoint] {
		if p.Counters["router_cycles"] > 0 {
			cycleAlloc = append(cycleAlloc, p.Counters["alloc_b"])
			routerCycles += p.Counters["router_cycles"]
			delivered += p.Counters["delivered_pkts"]
			arena = max(arena, p.Counters["arena_slots"])
		}
		if p.Counters["flow"] > 0 {
			other += self[p.ID].Seconds()
			if p.Counters["cold"] > 0 {
				cold = append(cold, p)
			} else {
				warm = append(warm, p)
			}
		}
	}
	if routerCycles > 0 {
		run := m["netsim.cycle.warmup_s"] + m["netsim.cycle.measure_s"] + m["netsim.cycle.drain_s"]
		m["netsim.cycle.ns_per_router_cycle"] = run * 1e9 / routerCycles
	}
	m["netsim.cycle.alloc_b_per_point"] = median(cycleAlloc)
	m["netsim.cycle.delivered_pkts"] = delivered
	m["netsim.cycle.arena_slots"] = arena
	m["netsim.flow.other_s"] = other
	m["netsim.flow.cold_point_s"] = medianDur(cold)
	m["netsim.flow.warm_points"] = float64(len(warm))
	return m
}

// pooledMetrics computes the percentile metrics over the spans of every
// traced pass together, so tail percentiles rest on as many samples as the
// run produced.
func pooledMetrics(spans []span) map[string]float64 {
	durs := func(name string, scale float64, keep func(span) bool) []float64 {
		var xs []float64
		for _, s := range spans {
			if s.Name == name && (keep == nil || keep(s)) {
				xs = append(xs, s.dur().Seconds()*scale)
			}
		}
		return xs
	}
	warmFlow := func(s span) bool { return s.Counters["flow"] > 0 && s.Counters["cold"] == 0 }
	pct := func(xs []float64, q float64) float64 {
		v, _ := percentile(xs, q) // 0 when the rule withholds the percentile
		return v
	}
	gets, puts := durs(spanStoreGet, 1e6, nil), durs(spanStorePut, 1e6, nil)
	rtts := durs(spanHTTP, 1e3, nil)
	return map[string]float64{
		"campaign.store_get_us_p50":    pct(gets, 0.5),
		"campaign.store_get_us_p90":    pct(gets, 0.9),
		"campaign.store_put_us_p50":    pct(puts, 0.5),
		"campaign.store_put_us_p90":    pct(puts, 0.9),
		"remote.rtt_ms_p50":            pct(rtts, 0.5),
		"remote.rtt_ms_p90":            pct(rtts, 0.9),
		"netsim.flow.warm_point_s_p50": pct(durs(spanPoint, 1, warmFlow), 0.5),
	}
}

// phaseOverruns counts point spans whose child phases sum to more than the
// point itself: a trace that cannot be right.
func phaseOverruns(spans []span) int {
	kids := map[int]time.Duration{}
	for _, s := range spans {
		kids[s.Parent] += s.dur()
	}
	bad := 0
	for _, s := range spans {
		if s.Name == spanPoint && kids[s.ID] > s.dur() {
			bad++
		}
	}
	return bad
}
