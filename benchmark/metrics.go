package main

// The metric table — every name BENCHMARK.json lists, with its unit,
// direction and whether it is a simulated-clock quantity that must
// repeat exactly for a fixed seed — and the arithmetic that turns a
// workload's rounds into those values.

import (
	"math"
	"slices"

	"repro/internal/metrics"
	"repro/internal/netsim"
)

// family is the BENCHMARK.json list a metric belongs to.
type family string

const (
	endToEnd family = "end_to_end"
	perLayer family = "per_layer"
)

// metricDef is one row of the table.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	family family
	// exact marks simulated-clock and count metrics: identical on every
	// run of the same seed, and compared against expected/<workload>.json.
	exact bool
	// bound is the end-to-end regression bound as a share of the median.
	bound float64
}

// legNames are the per-leg split's legs, over all workloads.
var legNames = []string{"bitcoin", "bitcoin-16x", "eth-pow", "eth-pos", "nano", "tangle"}

var metricDefs = buildMetricDefs()

func buildMetricDefs() []metricDef {
	defs := []metricDef{
		{family: endToEnd, name: "setup_s", unit: "s", better: "lower", bound: 0.25},
		{family: endToEnd, name: "run_s", unit: "s", better: "lower", bound: 0.25},
		{family: endToEnd, name: "confirmed_per_host_s", unit: "1/s", better: "higher", bound: 0.25},
		{family: endToEnd, name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
		{family: endToEnd, name: "alloc_mb", unit: "MB", better: "lower", bound: 0.25},
		{family: endToEnd, name: "mallocs_k", unit: "count", better: "lower", bound: 0.12},
		{family: endToEnd, name: "sim_confirmed_share", unit: "share", better: "higher", exact: true, bound: 0.25},
		{family: endToEnd, name: "sim_finality_p50_ms", unit: "ms", better: "lower", exact: true, bound: 0.20},
		{family: endToEnd, name: "sim_net_bytes_per_confirmed", unit: "B", better: "lower", exact: true, bound: 0.25},
		{family: endToEnd, name: "sim_ledger_bytes_per_confirmed", unit: "B", better: "lower", exact: true, bound: 0.25},
	}
	layer := func(name, unit, better string, exact bool) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better, family: perLayer, exact: exact})
	}
	for _, l := range cpuLayers {
		layer("cpu."+l+"_s", "s", "lower", false)
	}
	layer("trace.samples", "count", "higher", false)
	layer("trace.attributed_share", "share", "higher", false)
	layer("trace.overhead_share", "share", "lower", false)
	for _, op := range []string{
		"sim.event", "sim.send", "keys.sign", "keys.verify", "hashx.sum", "merkle.root", "trie.put",
		"chain.store-add", "utxo.process-block", "account.process-block",
		"lattice.process", "lattice.process-batch", "orv.process-vote", "tangle.attach", "metrics.add",
	} {
		layer("replay."+op+"_ns", "ns", "lower", false)
	}
	for _, c := range []struct{ name, unit, better string }{
		{"sim.events", "count", "lower"},
		{"sim.msgs_sent", "count", "lower"},
		{"sim.bytes_sent", "B", "lower"},
		{"sim.msgs_dropped", "count", "lower"},
		{"sim.msgs_per_confirmed", "count", "lower"},
		{"netsim.sync.pulls", "count", "lower"},
		{"netsim.sync.retries", "count", "lower"},
		{"netsim.sync.retargets", "count", "lower"},
		{"netsim.sync.rearms", "count", "lower"},
		{"netsim.sync.range_pulls", "count", "lower"},
		{"netsim.sync.blocks_served", "count", "lower"},
		{"netsim.sync.bytes_served", "B", "lower"},
		{"netsim.sync.backlog_evicted", "count", "lower"},
		{"netsim.sync.serve_amplification", "ratio", "lower"},
		{"netsim.sync.catchup_sim_ms", "ms", "lower"},
		{"netsim.sync.incomplete", "count", "lower"},
		{"chain.blocks_main", "count", "higher"},
		{"chain.orphan_rate", "share", "lower"},
		{"chain.reorgs", "count", "lower"},
		{"chain.propagation_p95_ms", "ms", "lower"},
		{"chain.rejected_txs", "count", "lower"},
		{"chain.pending_at_end", "count", "lower"},
		{"lattice.blocks", "count", "higher"},
		{"lattice.confirm_p50_ms", "ms", "lower"},
		{"lattice.confirm_p99_ms", "ms", "lower"},
		{"lattice.unsettled_at_end", "count", "lower"},
		{"orv.votes_sent", "count", "lower"},
		{"orv.votes_per_block", "ratio", "lower"},
		{"tangle.vertices", "count", "higher"},
		{"tangle.tips_at_end", "count", "lower"},
		{"tangle.confirm_p50_ms", "ms", "lower"},
		{"tangle.confirm_p99_ms", "ms", "lower"},
		{"tangle.pending_at_end", "count", "lower"},
	} {
		layer(c.name, c.unit, c.better, true)
	}
	layer("sim.host_ns_per_event", "ns", "lower", false)
	layer("runtime.gc_cycles", "count", "lower", false)
	layer("runtime.gc_pause_ms", "ms", "lower", false)
	layer("runtime.live_heap_mb", "MB", "lower", false)
	for _, l := range legNames {
		layer("leg."+l+".build_s", "s", "lower", false)
		layer("leg."+l+".run_s", "s", "lower", false)
		layer("leg."+l+".events", "count", "lower", true)
		layer("leg."+l+".sim_tps", "1/s", "higher", true)
		layer("leg."+l+".finality_p50_ms", "ms", "lower", true)
	}
	return defs
}

// values is one set of metric readings by name.
type values map[string]float64

const mb = 1 << 20

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// round is one pass over a workload's legs.
type round struct {
	legs []legResult
}

func (r round) sum(f func(*legResult) float64) float64 {
	t := 0.0
	for i := range r.legs {
		t += f(&r.legs[i])
	}
	return t
}

// slowdown is how much slower than the reference the host ran during
// the round: the median of the calibration samples taken around its
// legs over calibrationRef.
func (r round) slowdown() float64 {
	var cal []float64
	for _, l := range r.legs {
		cal = append(cal, l.cal[0], l.cal[1])
	}
	return median(cal) / calibrationRef
}

func (r round) setupS() float64 { return r.sum(func(l *legResult) float64 { return l.buildS }) }
func (r round) runS() float64   { return r.sum(func(l *legResult) float64 { return l.runS }) }
func (r round) confirmed() float64 {
	return r.sum(func(l *legResult) float64 { return float64(l.confirmed) })
}

// ops returns the attempted and failed operation counts: payments
// submitted, cold syncs scheduled and one convergence check per leg,
// against submissions no node accepted, cold syncs left incomplete and
// legs whose replicas disagree.
func (r round) ops() (attempted, failed int) {
	for _, l := range r.legs {
		attempted += l.submitted + l.coldSyncs + 1
		failed += l.unfunded + l.coldMissed
		if l.diverged {
			failed++
		}
	}
	return
}

// simValues computes every exact metric from one round. It divides by
// the confirmed count with ratio, so a scaled-down test run in which
// nothing confirmed still yields finite numbers.
func (r round) simValues() values {
	v := values{}
	confirmed := r.confirmed()
	submitted := r.sum(func(l *legResult) float64 { return float64(l.submitted) })
	v["sim_confirmed_share"] = ratio(confirmed, submitted)
	v["sim_finality_p50_ms"] = 1000 * ratio(r.sum(func(l *legResult) float64 { return float64(l.confirmed) * l.finalityP50 }), confirmed)
	bytes := r.sum(func(l *legResult) float64 { return float64(l.net.BytesSent) })
	msgs := r.sum(func(l *legResult) float64 { return float64(l.net.MessagesSent) })
	v["sim_net_bytes_per_confirmed"] = ratio(bytes, confirmed)
	v["sim_ledger_bytes_per_confirmed"] = ratio(r.sum(func(l *legResult) float64 { return float64(l.ledgerBytes) }), confirmed)

	v["sim.events"] = r.sum(func(l *legResult) float64 { return float64(l.events) })
	v["sim.msgs_sent"] = msgs
	v["sim.bytes_sent"] = bytes
	v["sim.msgs_dropped"] = r.sum(func(l *legResult) float64 {
		return float64(l.net.Dropped + l.net.Partitioned + l.net.ChurnDropped + l.net.LossDropped)
	})
	v["sim.msgs_per_confirmed"] = ratio(msgs, confirmed)

	var st netsim.SyncStats
	var history, catchup float64
	incomplete := 0
	for _, l := range r.legs {
		st.SyncPulls += l.sync.SyncPulls
		st.Retries += l.sync.Retries
		st.Retargets += l.sync.Retargets
		st.Rearms += l.sync.Rearms
		st.RangePulls += l.sync.RangePulls
		st.BlocksServed += l.sync.BlocksServed
		st.BytesServed += l.sync.BytesServed
		st.BacklogEvicted += l.sync.BacklogEvicted
		if l.coldSyncs > 0 {
			history += float64(l.history)
			catchup += float64(l.catchup) / 1e6
			incomplete += l.coldMissed
		}
	}
	v["netsim.sync.pulls"] = float64(st.SyncPulls)
	v["netsim.sync.retries"] = float64(st.Retries)
	v["netsim.sync.retargets"] = float64(st.Retargets)
	v["netsim.sync.rearms"] = float64(st.Rearms)
	v["netsim.sync.range_pulls"] = float64(st.RangePulls)
	v["netsim.sync.blocks_served"] = float64(st.BlocksServed)
	v["netsim.sync.bytes_served"] = float64(st.BytesServed)
	v["netsim.sync.backlog_evicted"] = float64(st.BacklogEvicted)
	// Blocks served over the history a cold node had to fetch: 1 is a
	// pull that moved every block once.
	v["netsim.sync.serve_amplification"] = ratio(float64(st.BlocksServed), history)
	v["netsim.sync.catchup_sim_ms"] = catchup
	v["netsim.sync.incomplete"] = float64(incomplete)

	var blocksMain, blocksTotal, orphaned, reorgs, rejected, pending float64
	var propagation metrics.Histogram
	var latBlocks, unsettled, votes float64
	var latConfirm metrics.Histogram
	var vertices, tips, tPending float64
	var tConfirm metrics.Histogram
	for _, l := range r.legs {
		if m := l.chain; m != nil {
			blocksMain += float64(m.BlocksOnMain)
			blocksTotal += float64(m.BlocksTotal)
			orphaned += float64(m.Orphaned)
			reorgs += float64(m.Reorgs)
			rejected += float64(m.RejectedTxs)
			pending += float64(m.PendingAtEnd)
			propagation.Merge(&m.Propagation)
		}
		if m := l.nano; m != nil {
			latBlocks += m.BPS * m.Duration.Seconds()
			unsettled += float64(m.UnsettledAtEnd)
			votes += float64(m.VotesSent)
			latConfirm.Merge(&m.ConfirmLatency)
		}
		if m := l.tangle; m != nil {
			vertices += float64(m.VerticesIssued)
			tips += float64(m.TipsAtEnd)
			tPending += float64(m.PendingAtEnd)
			tConfirm.Merge(&m.ConfirmLatency)
		}
	}
	v["chain.blocks_main"] = blocksMain
	v["chain.orphan_rate"] = ratio(orphaned, blocksTotal)
	v["chain.reorgs"] = reorgs
	v["chain.propagation_p95_ms"] = percentileMs(&propagation, 0.95)
	v["chain.rejected_txs"] = rejected
	v["chain.pending_at_end"] = pending
	v["lattice.blocks"] = math.Round(latBlocks)
	v["lattice.confirm_p50_ms"] = percentileMs(&latConfirm, 0.50)
	v["lattice.confirm_p99_ms"] = percentileMs(&latConfirm, 0.99)
	v["lattice.unsettled_at_end"] = unsettled
	v["orv.votes_sent"] = votes
	v["orv.votes_per_block"] = ratio(votes, math.Round(latBlocks))
	v["tangle.vertices"] = vertices
	v["tangle.tips_at_end"] = tips
	v["tangle.confirm_p50_ms"] = percentileMs(&tConfirm, 0.50)
	v["tangle.confirm_p99_ms"] = percentileMs(&tConfirm, 0.99)
	v["tangle.pending_at_end"] = tPending

	for _, name := range legNames {
		v["leg."+name+".events"] = 0
		v["leg."+name+".sim_tps"] = 0
		v["leg."+name+".finality_p50_ms"] = 0
	}
	for _, l := range r.legs {
		v["leg."+l.name+".events"] = float64(l.events)
		v["leg."+l.name+".sim_tps"] = ratio(float64(l.confirmed), l.horizon.Seconds())
		v["leg."+l.name+".finality_p50_ms"] = 1000 * l.finalityP50
	}
	return v
}

// percentileMs reads a percentile in milliseconds, or 0 when fewer than
// ten samples lie beyond it — a tail that thin is an anecdote.
func percentileMs(h *metrics.Histogram, p float64) float64 {
	if float64(h.N())*(1-p) < 10 {
		return 0
	}
	return 1000 * h.Quantile(p)
}

// hostLayerValues computes the host-side per-layer metrics that do not
// need the profile: runtime counters and the per-leg split, from the
// traced round.
func (r round) hostLayerValues() values {
	v := values{}
	v["sim.host_ns_per_event"] = ratio(1e9*r.runS(), r.sum(func(l *legResult) float64 { return float64(l.events) }))
	v["runtime.gc_cycles"] = r.sum(func(l *legResult) float64 { return float64(l.gcCycles) })
	v["runtime.gc_pause_ms"] = r.sum(func(l *legResult) float64 { return float64(l.gcPauseNs) / 1e6 })
	// Each leg's heap in use after a forced collection with its networks
	// still referenced, summed: what holding every leg at once would
	// take. Divided by node count on scale-gossip it is bytes per node.
	v["runtime.live_heap_mb"] = r.sum(func(l *legResult) float64 { return float64(l.liveHeap) / mb })
	for _, name := range legNames {
		v["leg."+name+".build_s"] = 0
		v["leg."+name+".run_s"] = 0
	}
	for _, l := range r.legs {
		v["leg."+l.name+".build_s"] = l.buildS
		v["leg."+l.name+".run_s"] = l.runS
	}
	return v
}
