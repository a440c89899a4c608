package core

// The tangle's side of the comparison: the cooperative tx-as-vertex DAG
// (§II-B's second family — IOTA-style, one transaction per vertex, two
// approved parents, cumulative-coverage confirmation) registered as the
// third ledger paradigm. This file holds its rows in the cross-paradigm
// sweeps (E9 throughput, E19 scaling law, E20 cold start) and E21, the
// tangle-specific confirmation experiment: the coverage-threshold sweep
// — the cooperative analogue of §IV-A's depth rules — plus the
// parasite-chain adversary on the tip-selection seam.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// e9TangleDur is the tangle's E9 horizon: like Nano it settles in
// seconds, not block intervals, so the saturating window is short.
func e9TangleDur(cfg Config) time.Duration { return cfg.dur(40 * time.Second) }

// e9TangleSystems is the tangle paradigm's E9 contribution: every
// payment is one vertex approving two tips, so throughput has no block
// cap at all — confirmation rate is bounded by traffic itself (coverage
// accumulates only as fast as later vertices arrive) and node hardware.
func e9TangleSystems(cfg Config) []e9System {
	return []e9System{{key: "tangle", run: func() (e9SysResult, error) {
		net, err := netsim.NewTangle(netsim.TangleConfig{
			Net:      netParams(8, 3, cfg.Seed+4, 20*time.Millisecond, 120*time.Millisecond),
			Accounts: 64,
		})
		if err != nil {
			return e9SysResult{}, err
		}
		dur := e9TangleDur(cfg)
		load := workload.Payments(rand.New(rand.NewSource(cfg.Seed+104)), workload.Config{
			Accounts: 64, Rate: 120, Duration: dur * 3 / 4, MaxAmount: 5,
		})
		m := net.RunWithTransfers(dur, load)
		return e9SysResult{tps: m.VPS, row: []string{
			"tangle (coverage)", "none (per-tx vertex)", "traffic + node hardware",
			metrics.F(m.VPS), "uncapped", metrics.I(m.PendingAtEnd)}}, nil
	}}}
}

// e19Tangle runs one tangle-side scaling-law point: a cooperative DAG
// of the given size settling the same fixed transfer schedule. Finality
// is the median creation→coverage delay at the observer — like the
// lattice it tracks propagation, not block depth, but the threshold is
// met by later traffic instead of votes.
func e19Tangle(cfg Config, nodes int) ([]string, error) {
	np := netParams(nodes, 4, cfg.Seed+int64(nodes)+2, 20*time.Millisecond, 200*time.Millisecond)
	np.SampleBudget = e19SampleBudget
	// Coverage comes from later traffic alone, so the fixed sweep
	// workload (a handful of transfers at every size) pairs with the
	// minimum meaningful threshold — otherwise the tail of every run
	// would sit forever under-covered and the row would measure nothing.
	net, err := netsim.NewTangle(netsim.TangleConfig{
		Net: np, Accounts: e19Accounts, ConfirmWeight: 2,
	})
	if err != nil {
		return nil, err
	}
	span := e19Span(cfg, 10*time.Second, 5*time.Second)
	load := e19Load(cfg.Seed+int64(53+nodes), 2, span, 5)
	horizon := cfg.dur(30 * time.Second)
	if min := span + 10*time.Second; horizon < min {
		horizon = min
	}
	m := net.RunWithTransfers(horizon, load)
	finality := 0.0
	if m.ConfirmLatency.N() > 0 {
		finality = m.ConfirmLatency.Quantile(0.5)
	}
	return e19Row("tangle (coverage)", nodes, net.Sim().EventsRun(),
		m.MessagesSent, m.BytesSent, m.VPS, finality, m.LedgerBytes), nil
}

// e20Tangle runs one tangle-side cold-start point: an 8-node network
// accumulates factor × the base span of vertices while the cold node
// (node 7) sits detached, then goes quiet; on rejoin the cold node
// range-pulls the attachment-ordered vertex stream — a topological
// order, so every pulled vertex attaches without parking. Transfers
// touching accounts owned by the cold node are filtered out — a
// detached owner would mint vertices the network never sees.
func e20Tangle(cfg Config, factor int) ([]string, error) {
	const nodes, cold = 8, 7
	net, err := netsim.NewTangle(netsim.TangleConfig{
		Net: e20Net(cfg, nodes, cfg.Seed+int64(300+factor)), Accounts: e19Accounts,
	})
	if err != nil {
		return nil, err
	}
	span := time.Duration(factor) * e19Span(cfg, time.Minute, 6*time.Second)
	var load []workload.TimedPayment
	for _, p := range e19Load(cfg.Seed+int64(307+factor), 2, span, 5) {
		if p.From%nodes != cold && p.To%nodes != cold {
			load = append(load, p)
		}
	}
	// Rejoin after the frontier quiesces: the pulled stream is static.
	joinAt := span + e19Span(cfg, 20*time.Second, 4*time.Second)
	net.ScheduleColdStart(cold, 0, joinAt, cfg.SyncPullBatch)
	horizon := joinAt + e19Span(cfg, 30*time.Second, 6*time.Second)
	net.RunWithTransfers(horizon, load)
	took, ok := net.ColdSyncDone(cold)
	return e20Row("tangle (coverage)", factor, net.Observer().VertexCount(), net.Observer().LedgerBytes(),
		took, ok, net.SyncStats()), nil
}

// e21Weights is the coverage-threshold sweep — the tangle's analogue of
// §IV-A's merchant depth rules (more required coverage = more
// confidence = more latency).
var e21Weights = []int{2, 4, 8}

// e21ReleaseDepths sweeps how long the parasite chain stays hidden
// before flooding the network.
var e21ReleaseDepths = []int{4, 8}

// e21ParasiteNode hosts the adversary: its behavior withholds every
// locally issued vertex into a private sub-tangle anchored at the
// public frontier, then releases the whole chain at once.
const e21ParasiteNode = 5

// e21Net builds one E21 network; every sweep point gets a disjoint
// seed stride.
func e21Net(cfg Config, confirmWeight int, seedOff int64) (*netsim.TangleNet, []workload.TimedPayment, time.Duration, error) {
	net, err := netsim.NewTangle(netsim.TangleConfig{
		Net:           netParams(8, 3, cfg.Seed+seedOff, 20*time.Millisecond, 120*time.Millisecond),
		Accounts:      e19Accounts,
		ConfirmWeight: confirmWeight,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	dur := e19Span(cfg, 40*time.Second, 8*time.Second)
	load := workload.Payments(rand.New(rand.NewSource(cfg.Seed+seedOff+1000)), workload.Config{
		Accounts: e19Accounts, Rate: 20, Duration: dur * 3 / 4, MaxAmount: 5,
	})
	return net, load, dur, nil
}

// e21Row renders one E21 sweep point.
func e21Row(scenario string, weight int, m netsim.TangleMetrics, attackerConfirmed, withheld string) []string {
	p50, p95 := "—", "—"
	if m.ConfirmLatency.N() > 0 {
		p50 = metrics.F1(1000*m.ConfirmLatency.Quantile(0.5)) + " ms"
		p95 = metrics.F1(1000*m.ConfirmLatency.Quantile(0.95)) + " ms"
	}
	return []string{
		scenario, metrics.I(weight), metrics.I(m.VerticesIssued),
		metrics.I(m.ConfirmedAtObserver), metrics.I(m.PendingAtEnd), metrics.I(m.TipsAtEnd),
		p50, p95, attackerConfirmed, withheld,
	}
}

// e21Honest runs one honest coverage-threshold point. Every threshold
// reruns the identical network, seed and workload — confirmation never
// feeds back into gossip or tip selection, so the DAG is the same and
// the sweep isolates the threshold itself: confirmed counts fall and
// latencies stretch as the required coverage grows.
func e21Honest(cfg Config, weight int) ([]string, error) {
	net, load, dur, err := e21Net(cfg, weight, 400)
	if err != nil {
		return nil, err
	}
	m := net.RunWithTransfers(dur, load)
	return e21Row("honest", weight, m, "—", "—"), nil
}

// e21Parasite runs one parasite-chain point at the default threshold:
// the adversary's tip-selection behavior grows a hidden sub-tangle and
// floods it at the release depth. Under pure cumulative weight the
// released chain self-certifies — each hidden vertex already carries
// the coverage of everything the attacker stacked on top of it — which
// is exactly why production tangles bias tip selection against
// side-chains; the attacker-confirmed column quantifies that weakness.
func e21Parasite(cfg Config, releaseDepth int) ([]string, error) {
	const weight = 4
	net, load, dur, err := e21Net(cfg, weight, int64(500+10*releaseDepth))
	if err != nil {
		return nil, err
	}
	b := net.InstallParasiteChain(e21ParasiteNode, releaseDepth)
	m := net.RunWithTransfers(dur, load)
	scenario := fmt.Sprintf("parasite (release at %d)", releaseDepth)
	if !b.Released() {
		scenario = fmt.Sprintf("parasite (unreleased, %d withheld)", b.Withheld())
	}
	st := net.Runtime().Stats()
	return e21Row(scenario, weight, m,
		metrics.I(net.ConfirmedIssuedBy(e21ParasiteNode)), metrics.I(st.BlocksWithheld)), nil
}

// RunE21TangleConfirmation measures the tangle's confirmation behavior
// on both axes the paper applies to the other ledgers: confidence
// (coverage threshold sweep, §IV's depth-rule analogue) and adversarial
// pressure (the parasite chain on the tip-selection seam). Sweep points
// fan out across cfg.Workers; rows land in fixed order.
func RunE21TangleConfirmation(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable("E21 (§IV): tangle confirmation — coverage threshold & parasite chain",
		"scenario", "confirm-weight", "vertices", "confirmed", "pending", "tips",
		"p50-latency", "p95-latency", "attacker-confirmed", "withheld")

	n := len(e21Weights) + len(e21ReleaseDepths)
	rows, err := fanOut(ctx, cfg, n, func(i int) ([]string, error) {
		if i < len(e21Weights) {
			return e21Honest(cfg, e21Weights[i])
		}
		return e21Parasite(cfg, e21ReleaseDepths[i-len(e21Weights)])
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("confirm-weight is the cumulative-coverage threshold: the cooperative analogue of §IV-A's depth rules — higher thresholds buy confidence with latency")
	t.AddNote("the parasite chain withholds vertices into a hidden sub-tangle and floods it at the release depth (tip-selection Behavior seam)")
	t.AddNote("under pure cumulative weight the released sub-tangle self-certifies (attacker-confirmed > 0) — the known weakness that makes production tangles bias tip selection against side-chains")
	t.AddNote("cells derive from deterministic counters only — tables are identical for any Workers")
	return t, nil
}
