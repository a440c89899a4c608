package netsim

// Tests for the fault-injection driver: partition/heal recovery, churn
// catch-up replay, and contested double spends under an attacker-weight
// sweep — the machinery behind E14/E15.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

func nanoFaultCfg(seed int64, byzantine int) NanoConfig {
	return NanoConfig{
		Net: NetParams{
			Nodes: 8, PeerDegree: 3, Seed: seed,
			MinLatency: 5 * time.Millisecond, MaxLatency: 30 * time.Millisecond,
		},
		Accounts:       24,
		Reps:           8,
		ByzantineNodes: byzantine,
	}
}

func nanoLoad(seed int64, dur time.Duration) []workload.TimedPayment {
	return workload.Payments(rand.New(rand.NewSource(seed)), workload.Config{
		Accounts: 24, Rate: 6, Duration: dur, MaxAmount: 3,
	})
}

// A partition stalls cross-side settlement; the heal catch-up (lattice
// exchange + vote re-broadcast) must reconverge every replica.
func TestNanoPartitionHealRecovers(t *testing.T) {
	net, err := NewNano(nanoFaultCfg(21, 0))
	if err != nil {
		t.Fatal(err)
	}
	fs := FaultSchedule{Partitions: []PartitionWindow{{
		At: 2 * time.Second, HealAt: 8 * time.Second,
		Groups: SplitGroups(8, 0.5),
	}}}
	fs.ApplyToNano(net)
	m := net.RunWithTransfers(14*time.Second, nanoLoad(22, 6*time.Second))

	if m.ConfirmedBlocks == 0 {
		t.Fatal("no confirmations at all under partition/heal")
	}
	if !net.LatticeConverged() {
		t.Fatal("lattices did not reconverge after heal catch-up")
	}
	if ps := net.Net().Stats().Partitioned; ps == 0 {
		t.Fatal("partition window dropped no messages — fault not injected")
	}
}

// Without the heal catch-up the two sides stay diverged — the driver's
// replay is what recovers, not luck.
func TestNanoPartitionWithoutCatchUpStalls(t *testing.T) {
	net, err := NewNano(nanoFaultCfg(21, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Partition mid-run and never heal.
	fs := FaultSchedule{Partitions: []PartitionWindow{{
		At: 2 * time.Second, Groups: SplitGroups(8, 0.5),
	}}}
	fs.ApplyToNano(net)
	net.RunWithTransfers(14*time.Second, nanoLoad(22, 6*time.Second))
	if net.LatticeConverged() {
		t.Fatal("unhealed partition converged — the test scenario lost its teeth")
	}
}

// A churned node misses live gossip; the rejoin exchange must bring it
// back to the observer's exact state.
func TestNanoChurnCatchUp(t *testing.T) {
	net, err := NewNano(nanoFaultCfg(31, 0))
	if err != nil {
		t.Fatal(err)
	}
	fs := FaultSchedule{Churn: []ChurnWindow{
		{Node: 6, LeaveAt: 2 * time.Second, RejoinAt: 8 * time.Second},
		{Node: 7, LeaveAt: 3 * time.Second, RejoinAt: 9 * time.Second},
	}}
	fs.ApplyToNano(net)
	net.RunWithTransfers(14*time.Second, nanoLoad(32, 6*time.Second))

	if cd := net.Net().Stats().ChurnDropped; cd == 0 {
		t.Fatal("churn windows dropped no messages — fault not injected")
	}
	if !net.LatticeConverged() {
		t.Fatal("churned nodes did not catch up after rejoin")
	}
	obs := net.nodes[0].lat.BlockCount()
	for _, idx := range []int{6, 7} {
		if got := net.nodes[idx].lat.BlockCount(); got != obs {
			t.Fatalf("node %d holds %d blocks, observer %d", idx, got, obs)
		}
	}
}

// Bitcoin churn: the rejoined miner re-syncs and every tip converges.
func TestBitcoinChurnCatchUp(t *testing.T) {
	net, err := NewBitcoin(BitcoinConfig{
		Net: NetParams{
			Nodes: 6, PeerDegree: 3, Seed: 41,
			MinLatency: 5 * time.Millisecond, MaxLatency: 25 * time.Millisecond,
		},
		BlockInterval: 5 * time.Second,
		Accounts:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := FaultSchedule{Churn: []ChurnWindow{
		{Node: 5, LeaveAt: 30 * time.Second, RejoinAt: 3 * time.Minute},
	}}
	fs.ApplyToBitcoin(net)
	m := net.Run(5 * time.Minute)

	if m.BlocksOnMain == 0 {
		t.Fatal("no blocks mined")
	}
	if cd := net.Net().Stats().ChurnDropped; cd == 0 {
		t.Fatal("churn window dropped no messages")
	}
	if !net.TipsConverged() {
		t.Fatal("tips diverged after churn rejoin")
	}
}

// Ethereum partition/heal through the shared driver: both sides produce,
// healing reorganizes onto one history.
func TestEthereumPartitionHealConverges(t *testing.T) {
	net, err := NewEthereum(EthereumConfig{
		Net: NetParams{
			Nodes: 6, PeerDegree: 2, Seed: 51,
			MinLatency: 5 * time.Millisecond, MaxLatency: 25 * time.Millisecond,
		},
		Consensus:     PoW,
		BlockInterval: 5 * time.Second,
		Accounts:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := FaultSchedule{Partitions: []PartitionWindow{{
		At: 30 * time.Second, HealAt: 3 * time.Minute,
		Groups: SplitGroups(6, 0.34),
	}}}
	fs.ApplyToEthereum(net)
	m := net.Run(5 * time.Minute)

	if m.BlocksOnMain == 0 {
		t.Fatal("no blocks produced")
	}
	if !net.TipsConverged() {
		t.Fatal("tips diverged after heal")
	}
}

// The loss window drops traffic only inside [At, Until).
func TestLossWindowBounded(t *testing.T) {
	net, err := NewNano(nanoFaultCfg(61, 0))
	if err != nil {
		t.Fatal(err)
	}
	fs := FaultSchedule{Loss: []LossWindow{{Rate: 0.5, At: 2 * time.Second, Until: 4 * time.Second}}}
	fs.ApplyToNano(net)
	net.RunWithTransfers(8*time.Second, nanoLoad(62, 6*time.Second))
	if ld := net.Net().Stats().LossDropped; ld == 0 {
		t.Fatal("loss window dropped nothing")
	}
	if net.Net().Stats().LossDropped > net.Net().Stats().MessagesSent {
		t.Fatal("loss bookkeeping inconsistent")
	}
}

// runDoubleSpend builds a fresh network with k byzantine nodes and runs
// one contested double spend to completion.
func runDoubleSpend(t *testing.T, seed int64, byzantine int) (DoubleSpendOutcome, *NanoNet) {
	t.Helper()
	net, err := NewNano(nanoFaultCfg(seed, byzantine))
	if err != nil {
		t.Fatal(err)
	}
	h := net.InjectContestedDoubleSpend(DoubleSpendPlan{
		Attacker: 7, VictimA: 1, VictimB: 2, Amount: 3, At: 2 * time.Second,
	})
	net.RunWithTransfers(10*time.Second, nanoLoad(seed+1, 1500*time.Millisecond))
	out := net.Outcome(h)
	if !out.Injected {
		t.Fatal("double spend was not injected")
	}
	return out, net
}

// With no attacker weight, honest first-seen voting keeps (or restores)
// the honest send at the observer and the rival never cements.
func TestDoubleSpendHonestMajorityWins(t *testing.T) {
	out, net := runDoubleSpend(t, 71, 0)
	if net.ByzantineWeightFraction() != 0 {
		t.Fatal("expected zero attacker weight")
	}
	if !out.HonestAttached || out.RivalWon {
		t.Fatalf("honest send lost with zero attacker weight: %+v", out)
	}
	if out.RivalCemented {
		t.Fatal("rival cemented with zero attacker weight")
	}
	if net.metrics.ForksDetected == 0 {
		t.Fatal("the double spend produced no fork at the observer")
	}
}

// A super-majority attacker (most representatives hosted on byzantine
// nodes) swings the election: the rival replaces the honest send on the
// observer's lattice.
func TestDoubleSpendMajorityAttackerWins(t *testing.T) {
	out, net := runDoubleSpend(t, 71, 6)
	frac := net.ByzantineWeightFraction()
	if frac < 0.5 {
		t.Fatalf("attacker weight fraction %.2f, want > 0.5 for this scenario", frac)
	}
	if !out.RivalWon || out.HonestAttached {
		t.Fatalf("super-majority attacker failed the double spend: %+v (weight %.2f)", out, frac)
	}
	if !out.Resolved {
		t.Fatalf("fork never resolved at the observer: %+v", out)
	}
}

// Fork-resolution latency is recorded at the observer whenever a
// contested election settles.
func TestForkResolveLatencyRecorded(t *testing.T) {
	out, net := runDoubleSpend(t, 91, 6)
	if !out.Resolved {
		t.Skip("fork did not resolve under this seed; latency undefined")
	}
	if net.metrics.ForkResolveLatency.N() == 0 {
		t.Fatal("resolved fork left no latency sample")
	}
	if net.metrics.ForkResolveLatency.Min() < 0 {
		t.Fatal("negative resolution latency")
	}
}

// The zero-value schedule must leave a run byte-identical to an
// unscripted one — the "no faults reproduces today's tables" invariant —
// on every ApplyTo: it schedules no event and leaves the sync manager
// unarmed. A non-empty schedule arms the sync manager on every network,
// the chains included.
func TestEmptyScheduleIsNoOp(t *testing.T) {
	for _, tc := range []struct {
		name  string
		apply func(FaultSchedule, ParadigmNet)
	}{
		{"bitcoin", func(fs FaultSchedule, n ParadigmNet) { fs.ApplyToBitcoin(n.(bitcoinParadigm).BitcoinNet) }},
		{"ethereum", func(fs FaultSchedule, n ParadigmNet) { fs.ApplyToEthereum(n.(ethereumParadigm).EthereumNet) }},
		{"nano", func(fs FaultSchedule, n ParadigmNet) { fs.ApplyToNano(n.(nanoParadigm).NanoNet) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(apply bool) ParadigmMetrics {
				spec, err := ParadigmByName(tc.name)
				if err != nil {
					t.Fatal(err)
				}
				net, err := spec.Build(nanoFaultCfg(81, 0).Net, BuildOptions{Accounts: 24})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range nanoLoad(82, 5*time.Second) {
					net.Submit(p)
				}
				if apply {
					pending := net.Sim().Pending()
					tc.apply(FaultSchedule{}, net)
					if got := net.Sim().Pending(); got != pending {
						t.Fatalf("empty schedule queued %d events", got-pending)
					}
					if shellOf(t, net).sync.armed {
						t.Fatal("empty schedule armed the sync manager")
					}
				}
				return net.RunSpan(90 * time.Second)
			}
			if a, b := run(false), run(true); a != b {
				t.Fatalf("empty schedule perturbed the run:\n%+v\nvs\n%+v", a, b)
			}

			spec, err := ParadigmByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			net, err := spec.Build(nanoFaultCfg(81, 0).Net, BuildOptions{Accounts: 24})
			if err != nil {
				t.Fatal(err)
			}
			tc.apply(FaultSchedule{Loss: []LossWindow{{Rate: 0.1, At: time.Second, Until: 2 * time.Second}}}, net)
			if !shellOf(t, net).sync.armed {
				t.Fatal("a non-empty schedule left the sync manager unarmed")
			}
		})
	}
}

// SplitGroups always leaves both sides nonempty and the observer in the
// majority group 0.
func TestSplitGroupsBounds(t *testing.T) {
	for _, tc := range []struct {
		nodes    int
		frac     float64
		minority int
	}{
		{8, 0.5, 4}, {8, 0.0, 1}, {8, 1.0, 7}, {2, 0.9, 1}, {5, 0.34, 2},
	} {
		g := SplitGroups(tc.nodes, tc.frac)
		if len(g) != tc.minority {
			t.Fatalf("SplitGroups(%d, %.2f) minority = %d, want %d", tc.nodes, tc.frac, len(g), tc.minority)
		}
		if _, has := g[sim.NodeID(0)]; has {
			t.Fatalf("SplitGroups(%d, %.2f) put the observer in the minority", tc.nodes, tc.frac)
		}
	}
}
