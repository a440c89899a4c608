package core

// E18: executed double spends under combined adversaries. E15 measured
// the *odds* of an attack (catch-up races, contested elections) and
// E16/E17 measured an adversary's *exposure* (victim lag, withheld
// weight); E18 carries the attack through to a wrong settlement and
// reports whether it actually happened. Two combined-fault shapes per
// ledger, built on the netsim executed-attack drivers: an eclipse that
// owns the victim's view and feeds it a payment the rest of the network
// never sees, and a partition that hides the conflicting spend until the
// heal exchange surfaces it. The zero-fault baseline rows reuse E15's
// sweep-point cell constructors, so they stay byte-identical to E15's
// zero-power rows by construction (pinned by the golden suite).

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pow"
)

// e18Seed* are the per-scenario seed strides; each (scenario, trial)
// pair owns a disjoint network seed so neither the fan-out schedule nor
// the trial count of one scenario can perturb another.
const (
	e18SeedChainEclipse   = 500_000
	e18SeedChainPartition = 510_000
	e18SeedNanoEclipse    = 520_000
	e18SeedNanoPartition  = 530_000
	e18SeedDepthSweep     = 540_000
)

// e18ChainTrial runs one executed chain double spend on a fresh network
// built from the canonical netsim scenario (see
// netsim.ChainDoubleSpendScenario): the victim (node 0, the merchant's
// node) is either fully eclipsed or split into a 2-node minority, the
// honest payment is fed to its side only, and the heal releases the
// honest chain against the victim's private view. The merchant's rule
// is 2 confirmations — deliberately shallow, the §IV-A point being that
// depth bought *inside* a captured view is void.
func e18ChainTrial(cfg Config, stride int64, trial int, partition bool) (netsim.ChainDoubleSpendOutcome, error) {
	bcfg, plan, fs, dur := netsim.ChainDoubleSpendScenario(cfg.Seed+stride+int64(trial), partition)
	net, err := netsim.NewBitcoin(bcfg)
	if err != nil {
		return netsim.ChainDoubleSpendOutcome{}, err
	}
	if fs != nil {
		fs.ApplyToBitcoin(net)
	}
	h := net.ScheduleDoubleSpend(plan)
	net.Run(dur)
	return net.DoubleSpendVerdict(h), nil
}

// e18NanoTrial runs one executed lattice double spend on a fresh
// network built from the canonical netsim scenario (see
// netsim.LatticeDoubleSpendScenario). The conflicting sends fork the
// attacker's account: the honest one reaches only the victim's side,
// the rival wins its quorum on the honest side, and the heal's fork
// election decides which send survives on the victim's lattice.
func e18NanoTrial(cfg Config, stride int64, trial int, partition bool) (netsim.LatticeDoubleSpendOutcome, error) {
	ncfg, plan, fs, dur := netsim.LatticeDoubleSpendScenario(cfg.Seed+stride+int64(trial), partition)
	net, err := netsim.NewNano(ncfg)
	if err != nil {
		return netsim.LatticeDoubleSpendOutcome{}, err
	}
	if fs != nil {
		fs.ApplyToNano(net)
	}
	h := net.ScheduleExecutedDoubleSpend(plan)
	net.Run(dur)
	return net.ExecutedOutcome(h), nil
}

// outOf renders a k-of-n count cell.
func outOf(k, n int) string { return fmt.Sprintf("%d/%d", k, n) }

// e18ChainRow aggregates DoubleSpendTrials executed chain double spends
// into one table row.
func e18ChainRow(cfg Config, scenario string, stride int64, adversary string, partition bool) ([]string, error) {
	var injected, accepted, reverted, honest int
	for trial := 0; trial < cfg.DoubleSpendTrials; trial++ {
		out, err := e18ChainTrial(cfg, stride, trial, partition)
		if err != nil {
			return nil, err
		}
		if !out.Injected {
			continue
		}
		injected++
		if out.Accepted {
			accepted++
		}
		if out.Reverted {
			reverted++
		}
		if out.HonestConfirmed {
			honest++
		}
	}
	if injected == 0 {
		return nil, fmt.Errorf("core: e18: no chain double spend injected (%s)", scenario)
	}
	return []string{
		scenario, "bitcoin (PoW, z=2 merchant)", adversary, metrics.I(injected),
		metrics.F4(float64(reverted) / float64(injected)), "—",
		outOf(accepted, injected), outOf(honest, injected), "—", "—",
	}, nil
}

// e18NanoRow aggregates DoubleSpendTrials executed lattice double spends
// into one table row. "Accepted" for the zero-confirmation merchant is
// the issued receive at heal time; the quorum column counts trials where
// the victim reached vote quorum *inside* the attack window — Nano's
// defense predicts zero, because a captured victim cannot hear the
// representatives.
func e18NanoRow(cfg Config, scenario string, stride int64, adversary string, partition bool) ([]string, error) {
	var injected, settled, reverted, honest, quorum int
	for trial := 0; trial < cfg.DoubleSpendTrials; trial++ {
		out, err := e18NanoTrial(cfg, stride, trial, partition)
		if err != nil {
			return nil, err
		}
		if !out.Injected {
			continue
		}
		injected++
		if out.Settled {
			settled++
		}
		if out.Reverted {
			reverted++
		}
		if out.HonestFinal {
			honest++
		}
		if out.ConfirmedAtVictim {
			quorum++
		}
	}
	if injected == 0 {
		return nil, fmt.Errorf("core: e18: no lattice double spend injected (%s)", scenario)
	}
	return []string{
		scenario, "nano (ORV, zero-conf merchant)", adversary, metrics.I(injected),
		metrics.F4(float64(reverted) / float64(injected)), "—",
		outOf(settled, injected), outOf(honest, injected), "—", outOf(quorum, injected),
	}, nil
}

// e18DepthWindows are the two attack-window lengths the confirmation-
// depth sweep crosses with the merchant rule: the canonical scenario's
// 135 s heal and a window less than half as long. The sweep's point is
// the interplay — a deeper rule only defends when the window is too
// short to manufacture that many confirmations inside the captured view.
var e18DepthWindows = []time.Duration{135 * time.Second, 75 * time.Second}

// e18DepthZs is the merchant-rule sweep, z = 1…6 (§IV-A's range from
// reckless to Nakamoto's canonical six).
var e18DepthZs = []int{1, 2, 3, 4, 5, 6}

// e18DepthRow aggregates DoubleSpendTrials executed eclipse double
// spends for one (z, window) sweep point. The analytic column is
// Nakamoto's catch-up probability for an attacker holding the captured
// side's hash share at depth z — what §IV-A says such an attacker could
// achieve in a fair race, next to what the eclipse actually executed.
func e18DepthRow(cfg Config, stride int64, z int, healAt time.Duration) ([]string, error) {
	var injected, accepted, reverted, honest int
	for trial := 0; trial < cfg.DoubleSpendTrials; trial++ {
		bcfg, plan, _, dur := netsim.ChainDoubleSpendScenario(cfg.Seed+stride+int64(trial), false)
		plan.Confirmations = z
		plan.HealAt = healAt
		net, err := netsim.NewBitcoin(bcfg)
		if err != nil {
			return nil, err
		}
		h := net.ScheduleDoubleSpend(plan)
		net.Run(dur)
		out := net.DoubleSpendVerdict(h)
		if !out.Injected {
			continue
		}
		injected++
		if out.Accepted {
			accepted++
		}
		if out.Reverted {
			reverted++
		}
		if out.HonestConfirmed {
			honest++
		}
	}
	if injected == 0 {
		return nil, fmt.Errorf("core: e18: no depth-sweep double spend injected (z=%d, heal %s)", z, healAt)
	}
	// The canonical scenario mines uniformly across its 6 nodes and the
	// eclipse captures the victim alone, so the captured view holds 1/6
	// of the network's hash power.
	const capturedShare = 1.0 / 6
	return []string{
		fmt.Sprintf("depth sweep (heal %ds)", int(healAt.Seconds())),
		fmt.Sprintf("bitcoin (PoW, z=%d merchant)", z), "100.00% links", metrics.I(injected),
		metrics.F4(float64(reverted) / float64(injected)),
		metrics.F4(pow.CatchUpProbability(capturedShare, z)),
		outOf(accepted, injected), outOf(honest, injected), "—", "—",
	}, nil
}

// RunE18ExecutedDoubleSpend executes double spends under combined
// adversaries on both sides of the paper's comparison and reports
// whether the victim's accepted payment was actually reverted. Chain
// side: the victim's 2-confirmation acceptance is manufactured inside a
// captured view (full eclipse, or a partition hiding the fork) and the
// heal's longer honest chain reorganizes it away — §IV-A's double-spend
// window, carried through. Lattice side: the zero-confirmation merchant
// settles the fed send, the rival wins quorum on the honest side, and
// the post-heal fork election rolls the merchant's payment back — while
// the quorum column shows the victim never reached vote confirmation
// inside the window, Nano's §IV-B defense for merchants who wait for it.
// The baseline rows rerun E15's zero-power sweep points through the
// shared cell constructors, byte-identical to E15's rows.
func RunE18ExecutedDoubleSpend(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable("E18 (§IV): executed double spends under combined adversaries",
		"scenario", "system", "adversary", "trials", "executed", "analytic",
		"accepted", "honest-final", "resolve-mean", "quorum@heal")

	points := []func() ([]string, error){
		// Baseline rows first: the golden suite pins their cells to E15's
		// zero-power rows (same constructors, same cells, plus the
		// scenario label and the trailing quorum column).
		func() ([]string, error) {
			trials, success, analytic := e15ChainRaceCells(cfg, 0, 0)
			return []string{
				"baseline (no faults)", "bitcoin (z=6 catch-up race)", metrics.Pct(0),
				trials, success, analytic, "—", "—", "—", "—",
			}, nil
		},
		func() ([]string, error) {
			cells, err := e15NanoCells(cfg, 0)
			if err != nil {
				return nil, err
			}
			return []string{
				"baseline (no faults)", "nano (ORV, 0/10 byzantine)", cells.Share,
				cells.Trials, cells.Success, "—", cells.Resolved, cells.Honest, cells.Latency, "—",
			}, nil
		},
		func() ([]string, error) {
			return e18ChainRow(cfg, "eclipse + double spend", e18SeedChainEclipse, "100.00% links", false)
		},
		func() ([]string, error) {
			return e18ChainRow(cfg, "partition-hidden fork", e18SeedChainPartition, "33.33% split", true)
		},
		func() ([]string, error) {
			return e18NanoRow(cfg, "eclipse + double spend", e18SeedNanoEclipse, "100.00% links", false)
		},
		func() ([]string, error) {
			return e18NanoRow(cfg, "partition-hidden fork", e18SeedNanoPartition, "20.00% split", true)
		},
	}
	if cfg.DepthSweep {
		// The sweep appends after the historical rows, window-major, so
		// the default table stays byte-identical with DepthSweep off.
		for wi, healAt := range e18DepthWindows {
			for _, z := range e18DepthZs {
				wi, z, healAt := wi, z, healAt
				points = append(points, func() ([]string, error) {
					stride := int64(e18SeedDepthSweep + wi*3_000 + z*500)
					return e18DepthRow(cfg, stride, z, healAt)
				})
			}
		}
	}
	rows, err := fanOut(ctx, cfg, len(points), func(i int) ([]string, error) { return points[i]() })
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("executed = accepted by the victim inside the attack window, then gone from its ledger after heal — the double spend actually happened (§IV)")
	t.AddNote("chain: the victim accepts at 2 confirmations mined inside its captured view; the released honest chain out-works its branch and the reorg strands the payment (§IV-A)")
	t.AddNote("lattice: accepted = the zero-conf merchant's issued receive at heal; quorum@heal counts trials where the victim reached vote quorum inside the window — a captured victim cannot, so a merchant waiting for confirmation refuses the payment (§IV-B)")
	t.AddNote("baseline rows rerun E15's zero-power sweep points — their cells match E15 byte for byte")
	if cfg.DepthSweep {
		t.AddNote("depth sweep: the eclipse shape rerun for merchant rules z = 1…6 against two window lengths; analytic is Nakamoto's catch-up odds for the captured side's 1/6 hash share — depth defends only once the window is too short to manufacture z confirmations inside the captured view (§IV-A)")
	}
	return t, nil
}
