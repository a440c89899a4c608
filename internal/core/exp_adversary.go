package core

// E14 and E15: the paper's §IV confidence claims measured under the
// adversity that motivates them. Blockchains resolve conflict by depth —
// partitions and churn surface as reorgs and orphaned branches — while
// the block-lattice resolves by representative vote — the same faults
// surface as stalled accounts and re-elections. E14 injects partitions
// and churn into the E9 networks; E15 sweeps attacker power on both
// sides: the Nakamoto catch-up race for chains, contested double-spend
// elections for Nano.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pow"
	"repro/internal/workload"
)

// e14Nodes is the node count of both E9 networks E14 reuses.
const e14Nodes = 8

// e14PartitionFaults splits the network for the middle third of the run.
func e14PartitionFaults(cfg Config, dur time.Duration) *netsim.FaultSchedule {
	return &netsim.FaultSchedule{Partitions: []netsim.PartitionWindow{{
		At:     dur / 3,
		HealAt: dur * 2 / 3,
		Groups: netsim.SplitGroups(e14Nodes, cfg.FaultPartitionFrac),
	}}}
}

// e14Churn is FaultChurnNodes clamped to the E14 network size (node 0
// must stay as the observer) — both the schedule and the scenario label
// use it, so the table never claims more churn than was injected.
func e14Churn(cfg Config) int {
	if cfg.FaultChurnNodes > e14Nodes-1 {
		return e14Nodes - 1
	}
	return cfg.FaultChurnNodes
}

// e14ChurnFaults takes e14Churn(cfg) nodes offline across the middle of
// the run, staggered so the network never loses them all at once; every
// node rejoins with a catch-up replay well before the end.
func e14ChurnFaults(cfg Config, dur time.Duration) *netsim.FaultSchedule {
	churn := e14Churn(cfg)
	fs := &netsim.FaultSchedule{}
	for i := 0; i < churn; i++ {
		stagger := time.Duration(i) * dur / 16
		rejoin := dur*5/8 + stagger
		// Even at the churn cap the last rejoin leaves dur/8 of run for
		// the catch-up replay to land before the cutoff.
		if max := dur * 7 / 8; rejoin > max {
			rejoin = max
		}
		fs.Churn = append(fs.Churn, netsim.ChurnWindow{
			Node:     e14Nodes - 1 - i, // churn from the top; node 0 observes
			LeaveAt:  dur/4 + stagger,
			RejoinAt: rejoin,
		})
	}
	return fs
}

// RunE14Resilience measures partition and churn resilience on the two E9
// networks. The baseline rows run the byte-identical unfaulted pipeline
// (their throughput and backlog cells equal the corresponding E9 cells);
// the fault rows replay the same seed and workload with a partition
// window or churn schedule injected, so every delta in the table is
// attributable to the fault alone. Chains pay in reorg depth and orphan
// rate (§IV-A); the lattice pays in stalled settlements and confirmation
// latency until re-election recovers it (§IV-B).
func RunE14Resilience(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable("E14 (§IV): partition & churn resilience — chain vs lattice",
		"scenario", "system", "throughput", "reorgs", "max-depth", "orphan-rate",
		"pending/unsettled", "confirm-p95", "recovered")

	recoveredCell := func(converged bool) string {
		if converged {
			return "yes"
		}
		return "DIVERGED"
	}
	chainRow := func(scenario string, m netsim.ChainMetrics, converged bool) []string {
		return []string{
			scenario, "bitcoin (PoW)", metrics.F(m.TPS),
			metrics.I(m.Reorgs), metrics.I(m.MaxReorgDepth), metrics.Pct(m.OrphanRate),
			metrics.I(m.PendingAtEnd), "—", recoveredCell(converged),
		}
	}
	nanoRow := func(scenario string, m netsim.NanoMetrics, converged bool) []string {
		return []string{
			scenario, "nano (ORV)", metrics.F(m.BPS),
			"—", "—", "—",
			metrics.I(m.UnsettledAtEnd),
			fmt.Sprintf("%.0f ms", 1000*m.ConfirmLatency.Quantile(0.95)),
			recoveredCell(converged),
		}
	}

	btcDur, nanoDur := e9BitcoinDur(cfg), e9NanoDur(cfg)
	scenario := fmt.Sprintf("partition %d%%/%d%%, middle third",
		100-int(100*cfg.FaultPartitionFrac), int(100*cfg.FaultPartitionFrac))
	churnLabel := fmt.Sprintf("churn %d nodes, staggered", e14Churn(cfg))

	// Six independent sweep points fan out across cfg.Workers; rows land
	// in fixed order. The baseline rows MUST stay first: the golden test
	// compares them against E9 cell by cell.
	points := []func() ([]string, error){
		func() ([]string, error) {
			m, conv, err := e9Bitcoin(cfg, nil)
			return chainRow("baseline (no faults)", m, conv), err
		},
		func() ([]string, error) {
			m, conv, err := e9Nano(cfg, 1, 0, nil, true)
			return nanoRow("baseline (no faults)", m, conv), err
		},
		func() ([]string, error) {
			m, conv, err := e9Bitcoin(cfg, e14PartitionFaults(cfg, btcDur))
			return chainRow(scenario, m, conv), err
		},
		func() ([]string, error) {
			m, conv, err := e9Nano(cfg, 1, 0, e14PartitionFaults(cfg, nanoDur), true)
			return nanoRow(scenario, m, conv), err
		},
		func() ([]string, error) {
			m, conv, err := e9Bitcoin(cfg, e14ChurnFaults(cfg, btcDur))
			return chainRow(churnLabel, m, conv), err
		},
		func() ([]string, error) {
			m, conv, err := e9Nano(cfg, 1, 0, e14ChurnFaults(cfg, nanoDur), true)
			return nanoRow(churnLabel, m, conv), err
		},
	}
	rows, err := fanOut(ctx, cfg, len(points), func(i int) ([]string, error) { return points[i]() })
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("baseline rows rerun the E9 networks unfaulted — their throughput and backlog cells match E9 byte for byte")
	t.AddNote("chains absorb splits as reorgs/orphans once the longer side wins (§IV-A); the lattice stalls cross-side settlement until heal catch-up and vote re-broadcast re-elect (§IV-B)")
	t.AddNote("heal/rejoin catch-up: chains exchange main chains (IBD stand-in); lattice nodes exchange full lattices and re-broadcast open-election votes")
	return t, nil
}

// e15NanoTrial runs one contested double spend on a fresh 10-node
// lattice network with k byzantine nodes and reports the observer's
// verdict, the measured attacker weight share, and the trial's
// fork-resolution latency histogram (for cross-trial pooling). Seed
// strides keep every (k, trial) network and workload stream disjoint
// even at large -double-spend-trials values.
func e15NanoTrial(cfg Config, k int, trial int) (netsim.DoubleSpendOutcome, float64, metrics.Histogram, error) {
	net, err := netsim.NewNano(netsim.NanoConfig{
		Net:      netParams(10, 3, cfg.Seed+int64(100_000*(k+1)+trial), 10*time.Millisecond, 60*time.Millisecond),
		Accounts: 40, Reps: 10,
		ByzantineNodes: k,
	})
	if err != nil {
		return netsim.DoubleSpendOutcome{}, 0, metrics.Histogram{}, err
	}
	// The attacker account lives on the highest node, byzantine whenever
	// k >= 1, so the attack and its voting weight share an owner.
	h := net.InjectContestedDoubleSpend(netsim.DoubleSpendPlan{
		Attacker: 9, VictimA: 1, VictimB: 2, Amount: 3, At: 2 * time.Second,
	})
	load := workload.Payments(rand.New(rand.NewSource(cfg.Seed+int64(100_000*(k+51)+trial))), workload.Config{
		Accounts: 40, Rate: 8, Duration: 1500 * time.Millisecond, MaxAmount: 3,
	})
	m := net.RunWithTransfers(10*time.Second, load)
	return net.Outcome(h), net.ByzantineWeightFraction(), m.ForkResolveLatency, nil
}

// contestedSpendCells are the rendered cells of one contested-double-
// spend sweep point, shared between E15's lattice rows and E18's
// zero-fault baseline row (which must stay byte-identical to E15's
// k = 0 row — pinned by TestE18ZeroFaultMatchesE15Baselines).
type contestedSpendCells struct {
	Share, Trials, Success, Resolved, Honest, Latency string
}

// e15NanoCells aggregates DoubleSpendTrials contested-spend trials at k
// byzantine nodes into rendered cells. Resolution latencies pool across
// trials so the reported mean is over every observed re-election, not an
// average of per-trial summaries.
func e15NanoCells(cfg Config, k int) (contestedSpendCells, error) {
	var (
		share                            float64
		pooled                           metrics.Histogram
		wins, resolved, honest, injected int
	)
	for trial := 0; trial < cfg.DoubleSpendTrials; trial++ {
		out, frac, lat, err := e15NanoTrial(cfg, k, trial)
		if err != nil {
			return contestedSpendCells{}, err
		}
		share = frac
		if out.Injected {
			injected++
		}
		if out.RivalWon {
			wins++
		}
		if out.Resolved {
			resolved++
		}
		if out.HonestAttached {
			honest++
		}
		pooled.Merge(&lat)
	}
	if injected == 0 {
		return contestedSpendCells{}, fmt.Errorf("core: e15: no double spend injected at k=%d", k)
	}
	latencyCell := "—"
	if pooled.N() > 0 {
		latencyCell = fmt.Sprintf("%.0f ms", 1000*pooled.Mean())
	}
	return contestedSpendCells{
		Share:    metrics.Pct(share),
		Trials:   metrics.I(injected),
		Success:  metrics.F4(float64(wins) / float64(injected)),
		Resolved: fmt.Sprintf("%d/%d", resolved, injected),
		Honest:   fmt.Sprintf("%d/%d", honest, injected),
		Latency:  latencyCell,
	}, nil
}

// e15ChainRaceCells renders one chain-side catch-up-race sweep point's
// cells. Each point owns a derived rng (cfg.Seed + 1000 + i) so the
// fan-out schedule cannot leak into the trial stream; E18's zero-fault
// chain row reuses point 0 (q = 0), keeping it byte-identical to E15's
// baseline by construction.
func e15ChainRaceCells(cfg Config, i int, q float64) (trials, success, analytic string) {
	chainTrials := cfg.count(2000)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(1000+i)))
	simulated := netsim.EmpiricalCatchUp(rng, q, 6, chainTrials)
	return metrics.I(chainTrials), metrics.F4(simulated), metrics.F4(pow.CatchUpProbability(q, 6))
}

// RunE15DoubleSpend sweeps attacker power on both sides of the paper's
// comparison. Chain side: the §IV-A Nakamoto catch-up race at z=6
// confirmations, attacker hash share q swept — analytic formula vs
// simulated races (netsim.CatchUpTrial). Lattice side: §IV-B contested
// double spends with the attacker's representatives swept from zero to a
// super-majority of the voting weight; success means the rival send
// displaces the honest payment on the observer's lattice. The zero-power
// rows on both sides are the unfaulted baselines.
func RunE15DoubleSpend(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable("E15 (§IV): double-spend success vs attacker power",
		"system", "attacker-share", "trials", "success-rate", "analytic", "resolved", "honest-survives", "resolve-mean")

	qs := []float64{0, 0.05, 0.10, 0.20, 0.30, 0.45}
	byzCounts := []int{0, 2, 4, 6}

	rows, err := fanOut(ctx, cfg, len(qs)+len(byzCounts), func(i int) ([]string, error) {
		if i < len(qs) {
			// Chain sweep point: attacker hash share q racing 6
			// confirmations.
			trials, success, analytic := e15ChainRaceCells(cfg, i, qs[i])
			return []string{
				"bitcoin (z=6 catch-up race)", metrics.Pct(qs[i]), trials,
				success, analytic,
				"—", "—", "—",
			}, nil
		}
		// Lattice sweep point: k of 10 nodes byzantine, each trial a
		// fresh network and double spend.
		k := byzCounts[i-len(qs)]
		cells, err := e15NanoCells(cfg, k)
		if err != nil {
			return nil, err
		}
		return []string{
			fmt.Sprintf("nano (ORV, %d/10 byzantine)", k), cells.Share, cells.Trials,
			cells.Success, "—", cells.Resolved, cells.Honest, cells.Latency,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}

	t.AddNote("chain: Nakamoto's race — the analytic column is pow.CatchUpProbability; six confirmations hold ~10%% attackers below 0.1%% success (§IV-A)")
	t.AddNote("nano: a double spend needs voting weight, not hashrate — the rival displaces the honest send only when byzantine representatives out-tally the honest quorum (§IV-B)")
	t.AddNote("zero-share rows are the unfaulted baselines on both sides")
	return t, nil
}
