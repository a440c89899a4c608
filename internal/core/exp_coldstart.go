package core

// E20: the bootstrap cost the paper's §V ledger-size comparison implies
// but never measures — how long a node that was offline for the whole
// run takes to catch up, and how many bytes it must pull, as the ledger
// grows. A fresh (cold) node joining a ledger network cannot settle
// anything until it has synchronized the history, so §V's size gap
// (145.95 GB Bitcoin vs 3.42 GB Nano at the paper's snapshot) is also a
// join-latency gap. Both paradigms run the same schedule shape: traffic
// builds a history for factor × base-span, then the cold node rejoins
// and the netsim sync manager range-pulls the canonical stream from a
// live peer. Every cell derives from deterministic sim counters, so the
// table is identical for any Workers (pinned by test, like E19).

import (
	"context"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// e20Factors scales the pre-join history span: each row's ledger is
// factor × the base span's worth of traffic.
var e20Factors = []int{1, 2, 4}

// e20Row renders one cold-start point.
func e20Row(system string, factor, history, ledgerBytes int, took time.Duration, ok bool, st netsim.SyncStats) []string {
	catchUp := "incomplete"
	if ok {
		catchUp = metrics.F1(took.Seconds()*1000) + " ms"
	}
	return []string{
		system, metrics.I(factor), metrics.I(history),
		metrics.Bytes(float64(ledgerBytes)), catchUp,
		metrics.Bytes(float64(st.BytesServed)), metrics.I(st.RangePulls),
		metrics.I(st.BacklogEvicted),
	}
}

// e20Net is the network every E20 point runs on: nodes full nodes of
// degree 4 on the 20–200 ms band, budgeted histograms, and the config's
// backlog bound on every node's buffers.
func e20Net(cfg Config, nodes int, seed int64) netsim.NetParams {
	np := netParams(nodes, 4, seed, 20*time.Millisecond, 200*time.Millisecond)
	np.SampleBudget = e19SampleBudget
	np.BacklogCap, np.BacklogTTL = cfg.BacklogCap, cfg.BacklogTTL
	return np
}

// e20Chain runs one chain-side point: a 10-node PoW network mines for
// factor × the base span while the cold node (relay-only, node 9) sits
// detached; on rejoin it range-pulls the main chain. The payment stream
// keeps blocks non-empty so ledger bytes grow with history length.
func e20Chain(cfg Config, factor int) ([]string, error) {
	const nodes, cold = 10, 9
	rates := make([]float64, nodes)
	for i := 0; i < cold; i++ {
		rates[i] = 1
	}
	net, err := netsim.NewBitcoin(netsim.BitcoinConfig{
		Net:           e20Net(cfg, nodes, cfg.Seed+int64(100+factor)),
		HashRates:     rates,
		BlockInterval: cfg.dur(10 * time.Second),
		// Accounts stop short of the cold node's index: every home ledger
		// building payments is a live one.
		Accounts: 8, InitialBalance: 1 << 30,
	})
	if err != nil {
		return nil, err
	}
	joinAt := time.Duration(factor) * e19Span(cfg, 2*time.Minute, 12*time.Second)
	var load []workload.TimedPayment
	for _, p := range e19Load(cfg.Seed+int64(103+factor), 2, joinAt, 20) {
		if p.From < 8 && p.To < 8 {
			load = append(load, p)
		}
	}
	net.ScheduleColdStart(cold, 0, joinAt, cfg.SyncPullBatch)
	horizon := joinAt + e19Span(cfg, time.Minute, 10*time.Second)
	m := net.RunWithPayments(horizon, load, 2)
	took, ok := net.ColdSyncDone(cold)
	return e20Row("bitcoin (PoW)", factor, m.BlocksOnMain, m.LedgerBytes, took, ok, net.SyncStats()), nil
}

// e20Nano runs one lattice-side point: an 8-node ORV network settles
// factor × the base span of transfers while the cold node (node 7) sits
// detached, then goes quiet; on rejoin the cold node range-pulls the
// account-ordered block stream. Transfers touching accounts owned by
// the cold node are filtered out — a detached owner would mint sends
// the network never sees.
func e20Nano(cfg Config, factor int) ([]string, error) {
	const nodes, cold = 8, 7
	net, err := netsim.NewNano(netsim.NanoConfig{
		Net:      e20Net(cfg, nodes, cfg.Seed+int64(200+factor)),
		Accounts: e19Accounts, Reps: 4, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	span := time.Duration(factor) * e19Span(cfg, time.Minute, 6*time.Second)
	var load []workload.TimedPayment
	for _, p := range e19Load(cfg.Seed+int64(207+factor), 2, span, 5) {
		if p.From%nodes != cold && p.To%nodes != cold {
			load = append(load, p)
		}
	}
	// Rejoin after in-flight receives settle: the pulled stream is static.
	joinAt := span + e19Span(cfg, 20*time.Second, 4*time.Second)
	net.ScheduleColdStart(cold, 0, joinAt, cfg.SyncPullBatch)
	horizon := joinAt + e19Span(cfg, 30*time.Second, 6*time.Second)
	net.RunWithTransfers(horizon, load)
	took, ok := net.ColdSyncDone(cold)
	return e20Row("nano (ORV)", factor, net.Observer().BlockCount(), net.Observer().LedgerBytes(),
		took, ok, net.SyncStats()), nil
}

// RunE20ColdStart measures bootstrap catch-up on every selected
// paradigm with a cold-start hook: the time and pulled bytes a cold
// node needs to join, swept over ledger length (history factors 1, 2,
// 4). The system list comes from the paradigm registry
// (Config.Paradigms filters it). Points fan out across cfg.Workers;
// rows land in fixed (factor, system) order.
func RunE20ColdStart(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable("E20 (§V): cold-start bootstrap — catch-up latency & pulled bytes vs ledger length",
		"system", "history-factor", "history-blocks", "ledger", "catch-up", "pulled", "range-pulls", "evicted")

	sys := e20Systems(cfg)
	rows, err := fanOut(ctx, cfg, len(sys)*len(e20Factors), func(i int) ([]string, error) {
		return sys[i%len(sys)](cfg, e20Factors[i/len(sys)])
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("the cold node is detached from t=0 and rejoins after the history is built; catch-up is rejoin → final range window (sim time)")
	t.AddNote("chains pull the main chain in height order; the lattice pulls the account-ordered block stream — both through the netsim sync manager")
	t.AddNote("pulled counts every block served to pullers (range windows + gap-repair backstop); evicted counts bounded-backlog drops")
	t.AddNote("cells derive from deterministic counters only — tables are identical for any Workers")
	return t, nil
}
