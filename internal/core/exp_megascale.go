package core

// E19: the paper's §VI scalability comparison probed on the axis the
// paper never measures — network size. Both paradigms run the same
// fixed workload at node counts swept 10² → 10⁵ and report throughput,
// finality latency and per-node message/state cost. The sweep
// dimensions follow the DAG-systems SoK (throughput, finality, memory
// growth per node); the mega-scale points are what the struct-of-arrays
// node state and the memoized signature verification exist for. Every
// cell is computed from deterministic counters (events, messages,
// modeled ledger bytes), never from runtime.MemStats, so tables are
// identical for any worker count — pinned by test.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// e19BaseCounts is the unscaled node-count sweep (10² → 10⁵).
var e19BaseCounts = []int{100, 1_000, 10_000, 100_000}

// e19SampleBudget caps exact latency-sample storage per histogram. The
// golden-scale and default sweeps stay far below it — their histograms
// remain exact and the tables byte-identical — while the 10⁵/10⁶-node
// points, whose propagation columns would otherwise hold one float64
// per node per block, collapse into O(1)-memory streaming quantiles.
const e19SampleBudget = 1 << 18

// e19NodeCounts scales the sweep by cfg.Scale, floors every point at 8
// nodes (the smallest network with the standard peer degree) and drops
// collapsed duplicates, keeping ascending order. A positive
// cfg.MegaNodes appends the unscaled frontier point (10⁶ in the
// mega-scale runs) when it extends the sweep.
func e19NodeCounts(cfg Config) []int {
	var out []int
	for _, base := range e19BaseCounts {
		n := cfg.count(base)
		if n < 8 {
			n = 8
		}
		if len(out) == 0 || n > out[len(out)-1] {
			out = append(out, n)
		}
	}
	if n := cfg.MegaNodes; n >= 8 && (len(out) == 0 || n > out[len(out)-1]) {
		out = append(out, n)
	}
	return out
}

// e19Accounts is the fixed user population: the sweep varies the node
// count alone, so every extra cost in a row is attributable to network
// size, not workload size.
const e19Accounts = 16

// e19Load builds one sweep point's payment schedule. The window is
// floored so scaled-down test runs still carry traffic, and an empty
// Poisson draw falls back to a single deterministic payment — a sweep
// row with zero settled transfers measures nothing.
func e19Load(seed int64, rate float64, span time.Duration, maxAmount uint64) []workload.TimedPayment {
	load := workload.Payments(rand.New(rand.NewSource(seed)), workload.Config{
		Accounts: e19Accounts, Rate: rate, Duration: span, MaxAmount: maxAmount,
	})
	if len(load) == 0 {
		load = []workload.TimedPayment{{At: span / 2, Payment: workload.Payment{From: 0, To: 1, Amount: 1}}}
	}
	return load
}

// e19Span floors a scaled duration: tiny -scale factors must shrink the
// horizon, not erase it.
func e19Span(cfg Config, base, floor time.Duration) time.Duration {
	if d := cfg.dur(base); d > floor {
		return d
	}
	return floor
}

// e19Row renders one sweep point. Finality is in milliseconds; message
// and byte costs are normalized per node — the curves the scaling law is
// about (a broadcast paradigm's per-node cost is flat only while the
// per-node constant hides the O(N) fan-out the totals reveal).
func e19Row(system string, nodes int, events uint64, msgs int, traffic int64, tput, finality float64, stateBytes int) []string {
	return []string{
		system, metrics.I(nodes), metrics.F(tput),
		fmt.Sprintf("%.0f ms", 1000*finality),
		metrics.F1(float64(msgs) / float64(nodes)),
		metrics.Bytes(float64(traffic) / float64(nodes)),
		metrics.Bytes(float64(stateBytes)),
		metrics.U64(events),
	}
}

// e19Chain runs one chain-side sweep point: a PoW network of the given
// size with the block interval and horizon scaled together, so every
// point produces the same ~10-block schedule and the row isolates the
// propagation/validation cost of size. Finality is the observed mean
// block interval plus the median full-network propagation delay — the
// expected wait for one confirmation (§IV-A's weakest merchant rule).
func e19Chain(cfg Config, nodes int) ([]string, error) {
	np := netParams(nodes, 4, cfg.Seed+int64(nodes), 20*time.Millisecond, 200*time.Millisecond)
	np.SampleBudget = e19SampleBudget
	net, err := netsim.NewBitcoin(netsim.BitcoinConfig{
		Net:           np,
		BlockInterval: cfg.dur(30 * time.Second), Accounts: e19Accounts, InitialBalance: 1 << 30,
	})
	if err != nil {
		return nil, err
	}
	span := e19Span(cfg, 10*time.Second, 5*time.Second)
	load := e19Load(cfg.Seed+int64(43+nodes), 2, span, 20)
	horizon := cfg.dur(5 * time.Minute)
	if min := span + 6*cfg.dur(30*time.Second); horizon < min {
		horizon = min
	}
	m := net.RunWithPayments(horizon, load, 2)
	finality := m.MeanBlockInterval.Seconds()
	if m.Propagation.N() > 0 {
		finality += m.Propagation.Quantile(0.5)
	}
	return e19Row("bitcoin (PoW)", nodes, net.Sim().EventsRun(),
		m.MessagesSent, m.BytesSent, m.TPS, finality, m.LedgerBytes), nil
}

// e19Nano runs one lattice-side sweep point: an ORV network of the given
// size settling the same fixed transfer schedule. Finality is the median
// block-creation→quorum delay at the observer — vote aggregation, not
// block depth, so it tracks propagation alone as the network grows.
func e19Nano(cfg Config, nodes int) ([]string, error) {
	np := netParams(nodes, 4, cfg.Seed+int64(nodes)+1, 20*time.Millisecond, 200*time.Millisecond)
	np.SampleBudget = e19SampleBudget
	net, err := netsim.NewNano(netsim.NanoConfig{
		Net:      np,
		Accounts: e19Accounts, Reps: 4, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	span := e19Span(cfg, 10*time.Second, 5*time.Second)
	load := e19Load(cfg.Seed+int64(47+nodes), 1, span, 5)
	horizon := cfg.dur(30 * time.Second)
	if min := span + 10*time.Second; horizon < min {
		horizon = min
	}
	m := net.RunWithTransfers(horizon, load)
	finality := 0.0
	if m.ConfirmLatency.N() > 0 {
		finality = m.ConfirmLatency.Quantile(0.5)
	}
	return e19Row("nano (ORV)", nodes, net.Sim().EventsRun(),
		m.MessagesSent, m.BytesSent, m.BPS, finality, m.LedgerBytes), nil
}

// RunE19ScalingLaw sweeps network size on every selected paradigm with
// a scaling-law hook (10² → 10⁵ nodes at Scale 1) under a fixed
// workload and reports the scaling-law curves: throughput, finality
// latency, per-node message and traffic cost, modeled state per node
// and total simulator events. The system list comes from the paradigm
// registry (Config.Paradigms filters it). Sweep points fan out across
// cfg.Workers; rows land in fixed (size, system) order.
func RunE19ScalingLaw(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	counts := e19NodeCounts(cfg)
	t := metrics.NewTable("E19 (§VI): scaling law — throughput, finality & per-node cost vs network size",
		"system", "nodes", "throughput", "finality-p50", "msgs/node", "traffic/node", "state/node", "events")

	sys := e19Systems(cfg)
	rows, err := fanOut(ctx, cfg, len(sys)*len(counts), func(i int) ([]string, error) {
		return sys[i%len(sys)](cfg, counts[i/len(sys)])
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("fixed workload at every size: cost deltas are network-size effects, not load effects")
	t.AddNote("chain finality = mean block interval + median full-network propagation (1-conf wait); lattice finality = median vote-quorum delay at the observer")
	t.AddNote("state/node is the modeled ledger size every full node stores (§V); msgs/node and traffic/node are the per-node share of network totals")
	t.AddNote("cells derive from deterministic counters only — tables are identical for any Workers")
	return t, nil
}
