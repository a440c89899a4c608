package core

// E16 and E17: per-node adversarial strategies on the netsim Behavior
// seam. Where E14/E15 injected *network* faults (partitions, churn,
// contested double spends), these two sweep *strategic* deviations by
// individual participants — the deviations the paper's §III/§IV
// comparison is ultimately about. E16 captures a victim's peer table
// (eclipse) and measures how far its view of either ledger falls behind
// the consensus; E17 sweeps adversary power for the two canonical
// withholding strategies: selfish mining on the chain side (§IV-A's
// attacker with a publication strategy instead of a race) and vote
// withholding on the lattice side (§IV-B's quorum denial).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pow"
	"repro/internal/workload"
)

// sweepWithExtra returns the default sweep with one optional extra point
// inserted in sorted position (deduplicated); extra <= 0 means none.
// Keeping the default sweep stable means a flag-added point never
// perturbs the other rows. Dedup is tolerance-based, not exact: a flag
// value within 1e-9 of a built-in point (think 0.05+0.2 arriving as
// 0.25000000000000004) would render an identical table row, so it is
// treated as the built-in point rather than duplicated.
func sweepWithExtra(defaults []float64, extra float64) []float64 {
	out := append([]float64(nil), defaults...)
	if extra > 0 {
		for _, v := range out {
			if math.Abs(v-extra) < 1e-9 {
				return out
			}
		}
		out = append(out, extra)
		sort.Float64s(out)
	}
	return out
}

// e16Fracs is E16's captured-peer-fraction sweep.
func e16Fracs(cfg Config) []float64 {
	return sweepWithExtra([]float64{0, 0.25, 0.5, 0.75, 1.0}, cfg.EclipseFrac)
}

// e16Bitcoin runs one eclipse sweep point on a Bitcoin network: node 0
// (the observer) is the victim; frac of its peer links are captured. At
// zero the pipeline is the untouched honest run.
func e16Bitcoin(cfg Config, frac float64) ([]string, error) {
	net, err := netsim.NewBitcoin(netsim.BitcoinConfig{
		Net:           netParams(10, 4, cfg.Seed+11, 20*time.Millisecond, 150*time.Millisecond),
		BlockInterval: 15 * time.Second, Accounts: 64, InitialBalance: 1 << 32,
	})
	if err != nil {
		return nil, err
	}
	net.Eclipse(0, frac)
	dur := cfg.dur(10 * time.Minute)
	load := workload.Payments(rand.New(rand.NewSource(cfg.Seed+211)), workload.Config{
		Accounts: 64, Rate: 8, Duration: dur, MaxAmount: 20,
	})
	m := net.RunWithPayments(dur, load, 5)
	rep := net.EclipseReport(0)
	st := net.Runtime().Stats()
	return []string{
		metrics.Pct(frac), "bitcoin (PoW)",
		metrics.I(int(rep.VictimHeight)), metrics.I(int(rep.ConsensusHeight)),
		metrics.I(rep.HeightLag), metrics.I(rep.ExposedBlocks),
		metrics.I(m.PendingAtEnd), "—",
		metrics.I(st.InboundDropped + st.OutboundDropped),
	}, nil
}

// e16Nano runs one eclipse sweep point on a Nano network: the victim is
// node 0 (the observer), so the observer-side metrics — settled count,
// unsettled backlog, confirmation latency — are the victim's experience.
func e16Nano(cfg Config, frac float64) ([]string, error) {
	net, err := netsim.NewNano(netsim.NanoConfig{
		Net:      netParams(10, 4, cfg.Seed+13, 10*time.Millisecond, 60*time.Millisecond),
		Accounts: 40, Reps: 4,
	})
	if err != nil {
		return nil, err
	}
	net.Eclipse(0, frac)
	dur := cfg.dur(30 * time.Second)
	load := workload.Payments(rand.New(rand.NewSource(cfg.Seed+213)), workload.Config{
		Accounts: 40, Rate: 20, Duration: dur * 3 / 4, MaxAmount: 5,
	})
	m := net.RunWithTransfers(dur, load)
	victimBlocks, healthyBlocks := net.BlockCountOf(0), net.BlockCountOf(1)
	lag := healthyBlocks - victimBlocks
	if lag < 0 {
		lag = 0
	}
	confirmCell := "—"
	if m.ConfirmLatency.N() > 0 {
		confirmCell = fmt.Sprintf("%.0f ms", 1000*m.ConfirmLatency.Quantile(0.95))
	}
	st := net.Runtime().Stats()
	return []string{
		metrics.Pct(frac), "nano (ORV)",
		metrics.I(victimBlocks), metrics.I(healthyBlocks),
		metrics.I(lag), "—",
		metrics.I(m.UnsettledAtEnd), confirmCell,
		metrics.I(st.InboundDropped + st.OutboundDropped),
	}, nil
}

// RunE16Eclipse sweeps an eclipse attack's captured-peer fraction on
// both sides of the comparison. The victim is the observer node; its
// captured links are dead in both directions, so its ledger view is
// whatever leaks through the surviving links. Chains expose the victim
// to stale confirmations (blocks it trusts that the consensus chain
// never adopted — the classic eclipse double-spend window); the lattice
// starves the victim of block gossip, so its settlement and confirmation
// pipeline stalls.
func RunE16Eclipse(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable("E16 (§IV): eclipse attack — victim lag & exposure vs captured peers",
		"captured", "system", "victim-progress", "network-progress",
		"lag", "exposed-blocks", "victim-backlog", "confirm-p95", "link-drops")

	fracs := e16Fracs(cfg)
	// One bitcoin and one nano point per fraction, fanned out across
	// cfg.Workers; rows land grouped by fraction, chain first.
	rows, err := fanOut(ctx, cfg, 2*len(fracs), func(i int) ([]string, error) {
		frac := fracs[i/2]
		if i%2 == 0 {
			return e16Bitcoin(cfg, frac)
		}
		return e16Nano(cfg, frac)
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("victim is node 0 (the observer); captured links drop traffic both ways, and the victim's peer view shrinks to the survivors (sim.SetPeersOf)")
	t.AddNote("chain progress is main-chain height; exposed-blocks counts victim main-chain blocks the consensus never adopted — confirmations a double spend rides through (§IV-A)")
	t.AddNote("lattice progress is attached lattice blocks (victim vs healthy replica); an eclipsed victim cannot hear sends, so receives never issue and settlement stalls (§II-B, §IV-B)")
	t.AddNote("0%% rows are the untouched honest pipeline")
	return t, nil
}

// e17Alphas and e17Withholds are E17's adversary-power sweeps.
func e17Alphas(cfg Config) []float64 {
	return sweepWithExtra([]float64{0, 0.15, 0.25, 0.35, 0.45}, cfg.SelfishAlpha)
}
func e17Withholds(cfg Config) []float64 {
	return sweepWithExtra([]float64{0, 0.25, 0.55}, cfg.WithholdWeight)
}

// e17SelfishNodes is the E17 selfish-mining network size; the adversary
// is the last node.
const e17SelfishNodes = 8

// e17SelfishNet builds E17's selfish-mining network: e17SelfishNodes-1
// honest unit-rate miners against an alpha hash share on the last node.
// The threshold test reuses this constructor at longer horizons, so the
// network the classic-threshold assertions run on is exactly the one the
// E17 table sweeps.
func e17SelfishNet(seed int64, alpha float64) (*netsim.BitcoinNet, error) {
	const nodes = e17SelfishNodes
	rates := make([]float64, nodes)
	for i := 0; i < nodes-1; i++ {
		rates[i] = 1
	}
	if alpha > 0 {
		// alpha share against nodes-1 honest units of power.
		rates[nodes-1] = alpha * float64(nodes-1) / (1 - alpha)
	}
	return netsim.NewBitcoin(netsim.BitcoinConfig{
		Net:           netParams(nodes, 3, seed, 20*time.Millisecond, 150*time.Millisecond),
		BlockInterval: 10 * time.Second, Accounts: 32, InitialBalance: 1 << 32,
		HashRates: rates,
	})
}

// e17Selfish runs one selfish-mining sweep point: the last node holds an
// alpha share of the hash power and publishes via the withheld-block
// strategy, racing with Eyal–Sirer's connectivity γ (Config.SelfishGamma;
// 0 is the historical first-seen race). Revenue share is its fraction of
// attributed observer main-chain blocks; the honest expectation is alpha
// itself.
func e17Selfish(cfg Config, alpha float64) ([]string, error) {
	const nodes = e17SelfishNodes
	net, err := e17SelfishNet(cfg.Seed+17, alpha)
	if err != nil {
		return nil, err
	}
	sm := net.InstallSelfishMinerGamma(nodes-1, cfg.SelfishGamma)
	dur := cfg.dur(12 * time.Minute)
	load := workload.Payments(rand.New(rand.NewSource(cfg.Seed+217)), workload.Config{
		Accounts: 32, Rate: 5, Duration: dur, MaxAmount: 10,
	})
	m := net.RunWithPayments(dur, load, 5)
	mined, total := net.MinerShare(nodes - 1)
	share, shareCell, gainCell := 0.0, "—", "—"
	if total > 0 {
		share = float64(mined) / float64(total)
		shareCell = metrics.Pct(share)
	}
	// Relative gain compares the adversary's main-chain share against the
	// share of blocks it actually produced this run (not the nominal
	// alpha, which lottery variance blurs at finite block counts): > 1
	// means withholding kept more of its blocks canonical than honest
	// publication would have.
	if alpha > 0 && m.BlocksTotal > 0 && sm.Produced() > 0 {
		producedShare := float64(sm.Produced()) / float64(m.BlocksTotal)
		gainCell = metrics.F(share / producedShare)
	}
	row := []string{"bitcoin (selfish mining)", metrics.Pct(alpha), metrics.Pct(sm.Gamma())}
	if cfg.SelfishGamma > 0 {
		// Measured effective γ: the share of open-race honest wins that
		// actually extended the adversary's block. It trails the
		// configured value when the adversary's block had not propagated
		// to the winning miner yet.
		effCell := "—"
		if taken, chances := net.EffectiveGamma(); chances > 0 {
			effCell = metrics.Pct(float64(taken) / float64(chances))
		}
		row = append(row, effCell)
	}
	return append(row,
		shareCell, metrics.Pct(pow.SelfishRevenue(alpha, sm.Gamma())), gainCell,
		metrics.Pct(m.OrphanRate),
		metrics.F(m.TPS), metrics.I(m.BlocksOnMain), "—",
		metrics.I(sm.Produced()),
	), nil
}

// e17Withhold runs one vote-withholding sweep point: representatives
// holding ~w of the voting weight go silent. The confirmation pipeline
// inflates as quorum thins and stalls once the silent weight passes the
// quorum margin.
func e17Withhold(cfg Config, w float64) ([]string, error) {
	net, err := netsim.NewNano(netsim.NanoConfig{
		Net:      netParams(10, 4, cfg.Seed+19, 10*time.Millisecond, 60*time.Millisecond),
		Accounts: 40, Reps: 8,
	})
	if err != nil {
		return nil, err
	}
	actual := net.InstallVoteWithholding(w)
	dur := cfg.dur(30 * time.Second)
	load := workload.Payments(rand.New(rand.NewSource(cfg.Seed+219)), workload.Config{
		Accounts: 40, Rate: 20, Duration: dur * 3 / 4, MaxAmount: 5,
	})
	m := net.RunWithTransfers(dur, load)
	confirmCell := "—"
	if m.ConfirmLatency.N() > 0 {
		confirmCell = fmt.Sprintf("%.0f ms", 1000*m.ConfirmLatency.Quantile(0.95))
	}
	row := []string{"nano (vote withholding)", metrics.Pct(actual), "—"}
	if cfg.SelfishGamma > 0 {
		row = append(row, "—") // effective-gamma is a chain-side concept
	}
	return append(row,
		"—", "—", "—", "—",
		metrics.F(m.BPS), metrics.I(m.ConfirmedBlocks), confirmCell,
		metrics.I(net.Runtime().Stats().VotesWithheld),
	), nil
}

// RunE17Strategy sweeps adversary power for the two canonical
// withholding strategies. Chain side: a selfish miner with hash share
// alpha withholds every block it finds and releases its private chain
// when rivals appear — revenue share above alpha is stolen from honest
// miners, and the forced races inflate the orphan rate (§IV-A's
// attacker, given a strategy instead of a race). Lattice side:
// representatives holding a sweep of the voting weight cast no votes at
// all — confirmation latency inflates as quorum thins and settlement
// confirmation stalls entirely once the silent weight crosses the
// quorum margin (§IV-B).
func RunE17Strategy(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	headers := []string{"system", "adversary-power", "gamma"}
	if cfg.SelfishGamma > 0 {
		// Only a γ-parameterized run has races to measure; the default
		// table keeps its historical column set byte for byte.
		headers = append(headers, "effective-gamma")
	}
	headers = append(headers, "revenue-share", "analytic",
		"relative-gain", "orphan-rate", "throughput", "confirmed", "confirm-p95", "withheld")
	t := metrics.NewTable("E17 (§III/§IV): selfish mining & vote withholding vs adversary power",
		headers...)

	alphas, withholds := e17Alphas(cfg), e17Withholds(cfg)
	rows, err := fanOut(ctx, cfg, len(alphas)+len(withholds), func(i int) ([]string, error) {
		if i < len(alphas) {
			return e17Selfish(cfg, alphas[i])
		}
		return e17Withhold(cfg, withholds[i-len(alphas)])
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("selfish mining: revenue-share is the adversary's slice of attributed main-chain blocks; relative-gain compares it to the share it produced — honest publication yields 1.00, withholding exceeds it past the profitability threshold (§IV-A)")
	t.AddNote("gamma is Eyal–Sirer's connectivity: the honest hash fraction mining on the adversary's block in an open 1-1 race; the analytic column is their closed-form pool revenue (pow.SelfishRevenue) — profitable above alpha = 1/3 at gamma=0, earlier as gamma rises (-selfish-gamma)")
	if cfg.SelfishGamma > 0 {
		t.AddNote("effective-gamma is the measured race outcome: open-race honest wins that extended the adversary's block, over all open-race honest wins — it trails the configured gamma when the adversary's block had not propagated to the winner yet")
	}
	t.AddNote("vote withholding: silenced representatives never vote, so their weight vanishes from every election; past the quorum margin nothing confirms (§IV-B) — compare confirm-p95 and confirmed against the 0%% row")
	t.AddNote("withheld column: blocks kept private (chain) / votes never cast (lattice)")
	t.AddNote("zero-power rows are the untouched honest pipelines")
	return t, nil
}
