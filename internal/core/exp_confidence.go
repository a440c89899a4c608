package core

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

// RunE4Forks reproduces Fig. 4: soft forks arise when "two different
// blocks are created at roughly the same time" relative to propagation
// delay, and resolve when one branch outgrows the other. The sweep shows
// orphan rate falling as the block interval grows — the quantitative
// reason Bitcoin tolerates 10-minute blocks.
func RunE4Forks(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable("E4 (Fig. 4): temporary forks vs block interval",
		"interval", "blocks", "orphaned", "orphan-rate", "analytic", "reorgs", "max-depth")
	intervals := []time.Duration{2 * time.Second, 5 * time.Second, 15 * time.Second, 60 * time.Second, 10 * time.Minute}
	for _, interval := range intervals {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		net, err := netsim.NewBitcoin(netsim.BitcoinConfig{
			Net:           netParams(12, 3, cfg.Seed, 200*time.Millisecond, 2*time.Second),
			BlockInterval: interval,
			Accounts:      8,
		})
		if err != nil {
			return nil, err
		}
		blocks := cfg.count(150)
		m := net.Run(time.Duration(blocks) * interval)
		analytic := pow.ExpectedOrphanRate(time.Second, interval) // ≈median gossip delay
		t.AddRow(
			interval.String(), metrics.I(m.BlocksTotal), metrics.I(m.Orphaned),
			metrics.Pct(m.OrphanRate), metrics.Pct(analytic),
			metrics.I(m.Reorgs), metrics.I(m.MaxReorgDepth),
		)
	}
	t.AddNote("typical forks (depth 1) dominate; deeper 'atypical' forks appear only at short intervals — the two cases drawn in Fig. 4")
	t.AddNote("the longer chain is adopted; orphaned transactions return to the mempool for re-inclusion (paper §IV-A)")
	return t, nil
}

// RunE5Confirmation reproduces §IV-A's confirmation-depth guidance: the
// probability that a buried transaction is reversed, as a function of
// attacker hash share q and depth z — analytically (Nakamoto) and by
// simulated attacker races. The classic rules fall out: ~6 blocks at
// q=10% for <0.1% risk (Bitcoin), and a 5–11 window for Ethereum's
// operating range.
func RunE5Confirmation(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	depths := []int{1, 2, 4, 6, 8, 11}
	t := metrics.NewTable("E5 (§IV-A): P(transaction reversed) vs confirmation depth",
		"attacker-q", "z=1", "z=2", "z=4", "z=6", "z=8", "z=11", "sim z=6", "z for <0.1% risk")
	trials := cfg.count(4000)
	for _, q := range []float64{0.05, 0.10, 0.20, 0.30, 0.45} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := []string{metrics.Pct(q)}
		for _, z := range depths {
			row = append(row, metrics.F4(pow.CatchUpProbability(q, z)))
		}
		row = append(row, metrics.F4(netsim.EmpiricalCatchUp(rng, q, 6, trials)))
		row = append(row, metrics.I(pow.ConfirmationsForRisk(q, 0.001, 200)))
		t.AddRow(row...)
	}
	t.AddNote("six confirmations for Bitcoin and five-to-eleven for Ethereum (paper §IV-A) correspond to ~10 percent attackers at sub-0.1 percent risk")
	t.AddNote("simulated attacker races (sim z=6 column) agree with Nakamoto's analytic formula")
	return t, nil
}

// RunE6VoteConfirmation reproduces §IV-B: in Nano "a transaction is
// confirmed when there is a majority of votes cast in favor … by the
// representatives" — no blocks to wait for, just vote latency, measured
// here against quorum thresholds and representative counts, with
// cementing as the finality marker.
func RunE6VoteConfirmation(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable("E6 (§IV-B): Nano confirmation by representative vote",
		"quorum", "reps", "confirmed", "cemented", "p50-latency", "p95-latency")
	for _, quorum := range []float64{0.5, 0.67} {
		for _, reps := range []int{4, 8} {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			net, err := netsim.NewNano(netsim.NanoConfig{
				Net:            netParams(10, 3, cfg.Seed, 20*time.Millisecond, 120*time.Millisecond),
				Accounts:       24,
				Reps:           reps,
				QuorumFraction: quorum,
			})
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			transfers := workload.Payments(rng, workload.Config{
				Accounts: 24, Rate: 4, Duration: cfg.dur(20 * time.Second), MaxAmount: 5,
			})
			m := net.RunWithTransfers(cfg.dur(40*time.Second), transfers)
			if m.ConfirmedBlocks == 0 {
				return nil, fmt.Errorf("core: e6: no confirmations at quorum %.2f", quorum)
			}
			t.AddRow(
				metrics.Pct(quorum), metrics.I(reps),
				metrics.I(m.ConfirmedBlocks), metrics.I(m.CementedBlocks),
				fmt.Sprintf("%.0f ms", 1000*m.ConfirmLatency.Quantile(0.5)),
				fmt.Sprintf("%.0f ms", 1000*m.ConfirmLatency.Quantile(0.95)),
			)
		}
	}
	t.AddNote("representatives vote automatically on first-seen blocks; confirmation is sub-second network latency, not block depth (paper §IV-B)")
	t.AddNote("cementing marks confirmed blocks irreversible — the planned finality feature the paper cites")
	return t, nil
}
