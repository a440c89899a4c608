package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/hashx"
	"repro/internal/orv"
	"repro/internal/pow"
	"repro/internal/utxo"
	"repro/internal/workload"
)

// fastNet keeps unit-test networks small and quick.
func fastNet(seed int64) NetParams {
	return NetParams{
		Nodes:      8,
		PeerDegree: 3,
		MinLatency: 10 * time.Millisecond,
		MaxLatency: 50 * time.Millisecond,
		Seed:       seed,
	}
}

func TestBitcoinNetworkConverges(t *testing.T) {
	cfg := BitcoinConfig{
		Net:           fastNet(1),
		BlockInterval: 30 * time.Second,
		Accounts:      32,
	}
	net, err := NewBitcoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	payments := workload.Payments(rng, workload.Config{
		Accounts: 32, Rate: 0.5, Duration: 20 * time.Minute, MaxAmount: 100,
	})
	m := net.RunWithPayments(20*time.Minute, payments, 10)

	if m.BlocksOnMain < 20 {
		t.Fatalf("only %d blocks in 20 min at 30 s interval", m.BlocksOnMain)
	}
	if m.ConfirmedTxs == 0 {
		t.Fatal("no transactions confirmed")
	}
	if m.TPS <= 0 {
		t.Fatal("zero TPS")
	}
	// The mean interval must converge near the target (§VI-A).
	ratio := float64(m.MeanBlockInterval) / float64(30*time.Second)
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("mean interval %v too far from 30s target", m.MeanBlockInterval)
	}
	// Every replica ends on the same tip as the observer (eventual
	// consistency across the gossip network).
	tip := net.ledgers[0].Store().Tip()
	for i, l := range net.ledgers[1:] {
		if l.Store().Tip() != tip {
			t.Fatalf("node %d diverged from observer tip", i+1)
		}
	}
	if m.LedgerBytes == 0 {
		t.Fatal("ledger size not measured")
	}
}

// The nodes of one Bitcoin network share a genesis block, a block catalog
// and a transaction and coin catalog, which the network's goroutine writes
// as blocks attach and payments are pooled, and so must stay on one
// goroutine; two networks share nothing. Two identical networks driven on
// two goroutines must therefore report the same run — and, under -race
// (make race), touch no common memory: a catalog made global fails here.
func TestBitcoinNetworksRunConcurrently(t *testing.T) {
	run := func() ChainMetrics {
		net, err := NewBitcoin(BitcoinConfig{Net: fastNet(3), BlockInterval: 30 * time.Second, Accounts: 16})
		if err != nil {
			t.Error(err)
			return ChainMetrics{}
		}
		payments := workload.Payments(rand.New(rand.NewSource(4)), workload.Config{
			Accounts: 16, Rate: 0.5, Duration: 5 * time.Minute, MaxAmount: 100,
		})
		return net.RunWithPayments(5*time.Minute, payments, 10)
	}
	results := make(chan ChainMetrics, 2) // one send per goroutine
	for i := 0; i < 2; i++ {
		go func() { results <- run() }()
	}
	a, b := <-results, <-results
	if a.ConfirmedTxs == 0 || a.BlocksOnMain == 0 {
		t.Fatalf("nothing happened: %d blocks, %d payments confirmed", a.BlocksOnMain, a.ConfirmedTxs)
	}
	if a.ConfirmedTxs != b.ConfirmedTxs || a.BlocksOnMain != b.BlocksOnMain || a.LedgerBytes != b.LedgerBytes ||
		a.RejectedTxs != b.RejectedTxs || a.BytesSent != b.BytesSent {
		t.Fatalf("identical networks on two goroutines disagree:\n%+v\n%+v", a, b)
	}
}

// The nano twin: each network's replicas share one block catalog, which
// the network's goroutine writes as blocks attach and fork resolutions
// roll them back. Two identical networks on two goroutines (run under
// -race) must not share one, and must agree.
func TestNanoNetworksRunConcurrently(t *testing.T) {
	run := func() NanoMetrics {
		net, err := NewNano(NanoConfig{Net: fastNet(5), Accounts: 16, Reps: 4})
		if err != nil {
			t.Error(err)
			return NanoMetrics{}
		}
		net.InjectContestedDoubleSpend(DoubleSpendPlan{At: 3 * time.Second, Attacker: 1, VictimA: 2, VictimB: 3, Amount: 50})
		transfers := workload.Payments(rand.New(rand.NewSource(6)), workload.Config{
			Accounts: 16, Rate: 4, Duration: 10 * time.Second, MaxAmount: 10,
		})
		return net.RunWithTransfers(20*time.Second, transfers)
	}
	results := make(chan NanoMetrics, 2) // one send per goroutine
	for i := 0; i < 2; i++ {
		go func() { results <- run() }()
	}
	a, b := <-results, <-results
	if a.SettledAtObserver == 0 || a.ConfirmedBlocks == 0 || a.ForksDetected == 0 {
		t.Fatalf("nothing happened: %d settled, %d confirmed, %d forks", a.SettledAtObserver, a.ConfirmedBlocks, a.ForksDetected)
	}
	if a.SettledAtObserver != b.SettledAtObserver || a.ConfirmedBlocks != b.ConfirmedBlocks ||
		a.ForksResolved != b.ForksResolved || a.LedgerBytes != b.LedgerBytes || a.BytesSent != b.BytesSent {
		t.Fatalf("identical networks on two goroutines disagree:\n%+v\n%+v", a, b)
	}
}

// The tangle twin: each network's replicas share one vertex catalog,
// which the network's goroutine writes as vertices first attach. Two
// identical networks on two goroutines (run under -race) must not share
// one, and must agree.
func TestTangleNetworksRunConcurrently(t *testing.T) {
	run := func() TangleMetrics {
		net, err := NewTangle(TangleConfig{Net: fastNet(7), Accounts: 16, ConfirmWeight: 3})
		if err != nil {
			t.Error(err)
			return TangleMetrics{}
		}
		net.ScheduleColdStart(7, 0, 8*time.Second, 16)
		transfers := workload.Payments(rand.New(rand.NewSource(8)), workload.Config{
			Accounts: 16, Rate: 10, Duration: 10 * time.Second, MaxAmount: 10,
		})
		return net.RunWithTransfers(20*time.Second, transfers)
	}
	results := make(chan TangleMetrics, 2) // one send per goroutine
	for i := 0; i < 2; i++ {
		go func() { results <- run() }()
	}
	a, b := <-results, <-results
	if a.VerticesIssued == 0 || a.ConfirmedAtObserver == 0 {
		t.Fatalf("nothing happened: %d issued, %d confirmed", a.VerticesIssued, a.ConfirmedAtObserver)
	}
	if a.VerticesIssued != b.VerticesIssued || a.ConfirmedAtObserver != b.ConfirmedAtObserver || a.TipsAtEnd != b.TipsAtEnd ||
		a.LedgerBytes != b.LedgerBytes || a.BytesSent != b.BytesSent {
		t.Fatalf("identical networks on two goroutines disagree:\n%+v\n%+v", a, b)
	}
}

// The account-model twin: every block a ledger executes thaws its state
// trie under a generation drawn from that ledger's arena, so the arena is
// written on every block. Arenas belong to one ledger; PoW and PoS
// networks, each run twice at once on its own goroutine (under -race),
// must share none, and each pair of twins must agree.
func TestEthereumNetworksRunConcurrently(t *testing.T) {
	type outcome struct {
		m    ChainMetrics
		root hashx.Hash
	}
	run := func(c Consensus) outcome {
		net, err := NewEthereum(EthereumConfig{Net: fastNet(9), Consensus: c, Accounts: 16})
		if err != nil {
			t.Error(err)
			return outcome{}
		}
		payments := workload.Payments(rand.New(rand.NewSource(10)), workload.Config{
			Accounts: 16, Rate: 2, Duration: 2 * time.Minute, MaxAmount: 50,
		})
		m := net.RunWithPayments(2*time.Minute, payments, 1)
		return outcome{m: m, root: net.Observer().State().Root()}
	}
	consensus := []Consensus{PoW, PoW, PoS, PoS}
	results := make([]outcome, len(consensus))
	var wg sync.WaitGroup
	for i, c := range consensus {
		wg.Add(1)
		go func(i int, c Consensus) {
			defer wg.Done()
			results[i] = run(c)
		}(i, c)
	}
	wg.Wait()
	for i := 0; i < len(results); i += 2 {
		a, b := results[i], results[i+1]
		if a.m.ConfirmedTxs == 0 || a.m.BlocksOnMain == 0 {
			t.Fatalf("%v: nothing happened: %d blocks, %d payments confirmed", consensus[i], a.m.BlocksOnMain, a.m.ConfirmedTxs)
		}
		if a.m.ConfirmedTxs != b.m.ConfirmedTxs || a.m.BlocksOnMain != b.m.BlocksOnMain || a.m.LedgerBytes != b.m.LedgerBytes ||
			a.m.RejectedTxs != b.m.RejectedTxs || a.m.BytesSent != b.m.BytesSent || a.root != b.root {
			t.Fatalf("%v: identical networks on two goroutines disagree:\n%+v\n%+v", consensus[i], a, b)
		}
	}
}

// Fig. 4's mechanism: short block intervals relative to propagation delay
// must produce more orphans than long intervals.
func TestBitcoinOrphanRateGrowsWithShortIntervals(t *testing.T) {
	run := func(interval time.Duration) float64 {
		cfg := BitcoinConfig{
			Net: NetParams{
				Nodes: 10, PeerDegree: 3, Seed: 7,
				// Slow, jittery network.
				MinLatency: 200 * time.Millisecond,
				MaxLatency: 2 * time.Second,
			},
			BlockInterval: interval,
			Accounts:      8,
		}
		net, err := NewBitcoin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := net.Run(200 * interval)
		return m.OrphanRate
	}
	fast := run(2 * time.Second)
	slow := run(60 * time.Second)
	if fast <= slow {
		t.Fatalf("orphan rate should fall with longer intervals: fast=%.3f slow=%.3f", fast, slow)
	}
	if fast < 0.02 {
		t.Fatalf("2s blocks over a 2s-latency network should fork noticeably, got %.3f", fast)
	}
}

func TestBitcoinNoMiners(t *testing.T) {
	cfg := BitcoinConfig{Net: fastNet(3), HashRates: []float64{0, 0, 0}}
	if _, err := NewBitcoin(cfg); err == nil {
		t.Fatal("zero hash rate must fail: no miners, no throughput (§III-A1)")
	}
}

// The simulated attacker race must agree with Nakamoto's analytic
// formula — the cross-check behind the §IV-A confirmation table.
func TestEmpiricalCatchUpMatchesAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		q float64
		z int
	}{{0.1, 2}, {0.2, 3}, {0.3, 4}} {
		analytic := pow.CatchUpProbability(tc.q, tc.z)
		empirical := EmpiricalCatchUp(rng, tc.q, tc.z, 20000)
		if math.Abs(analytic-empirical) > 0.02 {
			t.Fatalf("q=%.1f z=%d: analytic %.4f vs empirical %.4f",
				tc.q, tc.z, analytic, empirical)
		}
	}
}

func TestCatchUpTrialEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Majority attacker always wins eventually.
	if !CatchUpTrial(rng, 0.95, 3, 1_000_000) {
		t.Fatal("95% attacker should catch up")
	}
	if EmpiricalCatchUp(rng, 0.1, 6, 0) != 0 {
		t.Fatal("zero trials should be 0")
	}
}

func TestEthereumPoWNetwork(t *testing.T) {
	cfg := EthereumConfig{
		Net:           fastNet(21),
		Consensus:     PoW,
		BlockInterval: 15 * time.Second,
		Accounts:      32,
	}
	net, err := NewEthereum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	payments := workload.Payments(rng, workload.Config{
		Accounts: 32, Rate: 2, Duration: 5 * time.Minute, MaxAmount: 50,
	})
	m := net.RunWithPayments(5*time.Minute, payments, 1)
	if m.BlocksOnMain < 10 {
		t.Fatalf("blocks = %d", m.BlocksOnMain)
	}
	if m.ConfirmedTxs == 0 || m.TPS <= 0 {
		t.Fatalf("no throughput: %+v", m)
	}
	if m.RejectedTxs != 0 {
		t.Fatalf("%d of %d funded submissions rejected", m.RejectedTxs, m.SubmittedTxs)
	}
	// Replicas converge.
	tip := net.ledgers[0].Store().Tip()
	for i, l := range net.ledgers[1:] {
		if l.Store().Tip() != tip {
			t.Fatalf("node %d diverged", i+1)
		}
	}
	// State roots agree everywhere (account-model execution determinism).
	root := net.ledgers[0].State().Root()
	for i, l := range net.ledgers[1:] {
		if l.State().Root() != root {
			t.Fatalf("node %d state root diverged", i+1)
		}
	}
}

// A submission every node rejects must not consume the sender's nonce.
// Account 0's first payment exceeds its balance and is refused
// everywhere; account 1 then tops it up, and account 0's later payments
// must execute. When the rejected submission burned nonce 0 they were
// pooled at nonces 1 and 2 and waited forever behind the gap.
func TestEthereumRejectedSubmissionKeepsNonce(t *testing.T) {
	const balance = 1_000_000
	net, err := NewEthereum(EthereumConfig{
		Net:            fastNet(23),
		Consensus:      PoS,
		Accounts:       3,
		InitialBalance: balance,
	})
	if err != nil {
		t.Fatal(err)
	}
	pay := func(at time.Duration, from, to int, amount uint64) workload.TimedPayment {
		return workload.TimedPayment{At: at, Payment: workload.Payment{From: from, To: to, Amount: amount}}
	}
	m := net.RunWithPayments(time.Minute, []workload.TimedPayment{
		pay(1*time.Second, 0, 2, balance),    // value + gas > balance: rejected by every node
		pay(2*time.Second, 1, 0, balance/2),  // top-up
		pay(20*time.Second, 0, 2, balance),   // affordable once the top-up confirmed
		pay(21*time.Second, 0, 2, balance/4), // queues behind it
	}, 1)
	if m.SubmittedTxs != 4 || m.RejectedTxs != 1 {
		t.Fatalf("submitted %d rejected %d, want 4 and 1", m.SubmittedTxs, m.RejectedTxs)
	}
	if m.ConfirmedTxs != 3 || m.PendingAtEnd != 0 {
		t.Fatalf("confirmed %d, pending %d: payments after the rejected one never executed", m.ConfirmedTxs, m.PendingAtEnd)
	}
	if got := net.Observer().State().Nonce(net.Ring().Addr(0)); got != 2 {
		t.Fatalf("sender nonce = %d, want 2", got)
	}
}

// §IV-A/§III-A2: the PoS schedule produces ~4 s blocks and FFG finalizes
// checkpoints.
func TestEthereumPoSFinality(t *testing.T) {
	cfg := EthereumConfig{
		Net:           fastNet(31),
		Consensus:     PoS,
		BlockInterval: 4 * time.Second,
		EpochLength:   5,
		Accounts:      16,
	}
	net, err := NewEthereum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := net.Run(4 * time.Minute)
	// One block per 4s slot: ~60 blocks in 4 minutes.
	if m.BlocksOnMain < 40 {
		t.Fatalf("PoS produced only %d blocks", m.BlocksOnMain)
	}
	if m.MeanBlockInterval < 3*time.Second || m.MeanBlockInterval > 5*time.Second {
		t.Fatalf("PoS interval = %v, want ≈4s", m.MeanBlockInterval)
	}
	fin := net.Finality()
	if fin.JustifiedCheckpoints == 0 {
		t.Fatal("no checkpoints justified")
	}
	if fin.FinalizedCheckpoints == 0 {
		t.Fatal("no checkpoints finalized — §IV-A finality missing")
	}
	if fin.MeanFinalityLag <= 0 {
		t.Fatal("finality lag not measured")
	}
	// PoS without forks: no orphans in the honest schedule.
	if m.Orphaned != 0 {
		t.Fatalf("honest PoS run orphaned %d blocks", m.Orphaned)
	}
}

func TestNanoNetworkSettlesTransfers(t *testing.T) {
	cfg := NanoConfig{
		Net:      fastNet(41),
		Accounts: 24,
		Reps:     4,
	}
	net, err := NewNano(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	transfers := workload.Payments(rng, workload.Config{
		Accounts: 24, Rate: 4, Duration: 30 * time.Second, MaxAmount: 10,
	})
	m := net.RunWithTransfers(time.Minute, transfers)
	if m.SendsCreated == 0 {
		t.Fatal("no sends created")
	}
	settledFrac := float64(m.SettledAtObserver) / float64(m.SendsCreated)
	if settledFrac < 0.9 {
		t.Fatalf("only %.0f%% of sends settled", settledFrac*100)
	}
	if m.UnsettledAtEnd > m.SendsCreated/10 {
		t.Fatalf("unsettled backlog %d too high", m.UnsettledAtEnd)
	}
	// §IV-B: blocks confirm by representative quorum, quickly.
	if m.ConfirmedBlocks == 0 {
		t.Fatal("no blocks confirmed by vote")
	}
	if m.CementedBlocks == 0 {
		t.Fatal("no blocks cemented")
	}
	if lat := m.ConfirmLatency.Quantile(0.5); lat <= 0 || lat > 2 {
		t.Fatalf("median confirmation latency %.3fs out of expected range", lat)
	}
	// Value conservation on every replica.
	for i, node := range net.nodes {
		if err := node.lat.CheckInvariant(); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	// §V-B: head-only pruning is far smaller than full history.
	if m.HeadBytes >= m.LedgerBytes {
		t.Fatal("head bytes should undercut ledger bytes")
	}
}

// Live gossip must settle the workload, confirm by vote and converge
// every replica on every account head, conserving value on each.
func TestNanoGossipConverges(t *testing.T) {
	net, err := NewNano(NanoConfig{Net: fastNet(141), Accounts: 24, Reps: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(142))
	transfers := workload.Payments(rng, workload.Config{
		Accounts: 24, Rate: 6, Duration: 30 * time.Second, MaxAmount: 10,
	})
	m := net.RunWithTransfers(time.Minute, transfers)
	if m.SendsCreated == 0 {
		t.Fatal("no sends created")
	}
	if frac := float64(m.SettledAtObserver) / float64(m.SendsCreated); frac < 0.9 {
		t.Fatalf("only %.0f%% of sends settled", frac*100)
	}
	if m.ConfirmedBlocks == 0 {
		t.Fatal("no blocks confirmed by vote")
	}
	obs := net.nodes[0].lat
	for i, node := range net.nodes {
		if err := node.lat.CheckInvariant(); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if i == 0 {
			continue
		}
		for acct := 0; acct < 24; acct++ {
			addr := net.Ring().Addr(acct)
			want, _ := obs.Head(addr)
			got, _ := node.lat.Head(addr)
			if got != want {
				t.Fatalf("node %d diverged from observer on account %d", i, acct)
			}
		}
	}
}

// §II-B: "a node has to be online in order to receive a transaction" —
// transfers to offline receivers stay unsettled.
func TestNanoOfflineReceiversLeaveUnsettled(t *testing.T) {
	cfg := NanoConfig{
		Net:              fastNet(51),
		Accounts:         12,
		Reps:             3,
		OfflineReceivers: map[int]bool{7: true},
	}
	net, err := NewNano(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var transfers []workload.TimedPayment
	for i := 0; i < 5; i++ {
		transfers = append(transfers, workload.TimedPayment{
			At:      time.Duration(i+1) * time.Second,
			Payment: workload.Payment{From: 1, To: 7, Amount: 5},
		})
	}
	// And one online control transfer.
	transfers = append(transfers, workload.TimedPayment{
		At: 6 * time.Second, Payment: workload.Payment{From: 2, To: 3, Amount: 5},
	})
	m := net.RunWithTransfers(30*time.Second, transfers)
	if m.UnsettledAtEnd != 5 {
		t.Fatalf("unsettled = %d, want the 5 offline-bound sends", m.UnsettledAtEnd)
	}
	if net.Observer().Balance(net.Ring().Addr(7)) != net.cfg.Supply/12 {
		t.Fatal("offline receiver's settled balance should be unchanged")
	}
}

// Flooding votes for candidates that never materialize must not grow the
// pending buffer past its one bound: the oldest votes go first, an
// evicted vote's dedup bit is cleared so its rebroadcast parks again, and
// a vote still parked is not parked twice.
func TestNanoPendingVoteFloodBounded(t *testing.T) {
	net, err := NewNano(NanoConfig{Net: fastNet(161), Accounts: 8, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	node := net.nodes[1]
	rep := net.Ring().Pair(0) // a representative with real weight
	// ghost is the i-th flood vote: four sequence numbers per ghost block.
	ghost := func(i int) *orv.Vote {
		block := hashx.Sum([]byte(fmt.Sprintf("never-materializes-%d", i/4)))
		return orv.NewVote(rep, block, uint64(i%4+1))
	}
	// parked counts the copies of vote i waiting on its ghost block.
	parked := func(i int) (n int) {
		want := voteKeyOf(ghost(i))
		for _, v := range node.pendingVotes.Waiting(want.Block) {
			if voteKeyOf(v) == want {
				n++
			}
		}
		return n
	}
	const flood = maxPendingVotes + 64
	for i := 0; i < flood; i++ {
		net.onVote(node, ghost(i))
	}
	if got := node.pendingVotes.Len(); got != maxPendingVotes {
		t.Fatalf("pending votes = %d after a flood of %d, bound %d", got, flood, maxPendingVotes)
	}
	for _, i := range []int{0, 1, 63, 64, 65, flood - 1} {
		want := 1
		if i < 64 {
			want = 0
		}
		if got := parked(i); got != want {
			t.Fatalf("vote %d parked %d times after the flood, want %d", i, got, want)
		}
	}
	// A rebroadcast of an evicted vote parks again, evicting the oldest
	// still-parked vote in its turn.
	net.onVote(node, ghost(0))
	if parked(0) != 1 || parked(64) != 0 || node.pendingVotes.Len() != maxPendingVotes {
		t.Fatalf("rebroadcast of evicted vote 0: parked %d, vote 64 parked %d, Len %d",
			parked(0), parked(64), node.pendingVotes.Len())
	}
	// A rebroadcast of a still-parked vote is a duplicate.
	net.onVote(node, ghost(flood-1))
	if parked(flood-1) != 1 || node.pendingVotes.Len() != maxPendingVotes {
		t.Fatalf("rebroadcast of parked vote %d: parked %d, Len %d",
			flood-1, parked(flood-1), node.pendingVotes.Len())
	}
}

// §IV-B/§III-B: a malicious double spend forks an account chain; the
// weighted representative vote picks one winner on every node.
func TestNanoDoubleSpendResolvedByVote(t *testing.T) {
	cfg := NanoConfig{
		Net:      fastNet(61),
		Accounts: 16,
		Reps:     4,
	}
	net, err := NewNano(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.InjectContestedDoubleSpend(DoubleSpendPlan{
		Attacker: 5, VictimA: 2, VictimB: 3, Amount: 10, At: time.Second,
		Entry: cfg.Net.Nodes - 1,
	})
	m := net.Run(30 * time.Second)
	if m.ForksDetected == 0 {
		t.Fatal("observer never detected the fork")
	}
	// All replicas agree on account 5's head.
	head, ok := net.nodes[0].lat.Head(net.Ring().Addr(5))
	if !ok {
		t.Fatal("attacker account missing")
	}
	for i, node := range net.nodes[1:] {
		other, _ := node.lat.Head(net.Ring().Addr(5))
		if other != head {
			t.Fatalf("node %d disagrees on fork winner", i+1)
		}
	}
	// Conservation holds even through the fork.
	for i, node := range net.nodes {
		if err := node.lat.CheckInvariant(); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	// Exactly one victim got (or will get) the money: settled+pending for
	// the two victims total the attacked amount.
	obs := net.nodes[0].lat
	var got uint64
	for _, v := range []int{2, 3} {
		addr := net.Ring().Addr(v)
		got += obs.Balance(addr) - net.cfg.Supply/16
		for _, p := range obs.PendingFor(addr) {
			info, _ := obs.PendingInfo(p)
			got += info.Amount
		}
	}
	if got != 10 {
		t.Fatalf("double spend leaked value: victims net +%d, want +10", got)
	}
}

// §VI-B: throughput is "determined by the quality of consumer grade
// hardware" — a tight per-block processing budget must cap TPS below an
// unconstrained run.
func TestNanoHardwareBudgetCapsThroughput(t *testing.T) {
	run := func(procPerBlock time.Duration) NanoMetrics {
		cfg := NanoConfig{
			Net:          fastNet(71),
			Accounts:     24,
			Reps:         3,
			ProcPerBlock: procPerBlock,
			ProcPerVote:  procPerBlock / 10,
		}
		net, err := NewNano(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(72))
		transfers := workload.Payments(rng, workload.Config{
			Accounts: 24, Rate: 20, Duration: 20 * time.Second, MaxAmount: 5,
		})
		return net.RunWithTransfers(40*time.Second, transfers)
	}
	fastM := run(0)
	slowM := run(300 * time.Millisecond)
	if slowM.SettledAtObserver >= fastM.SettledAtObserver {
		t.Fatalf("hardware budget did not reduce settlement: %d vs %d",
			slowM.SettledAtObserver, fastM.SettledAtObserver)
	}
	if p50 := slowM.ConfirmLatency.Quantile(0.5); p50 <= fastM.ConfirmLatency.Quantile(0.5) {
		t.Fatalf("budgeted run should confirm slower (%.3f vs %.3f)",
			p50, fastM.ConfirmLatency.Quantile(0.5))
	}
}

func TestNanoSpamThrottle(t *testing.T) {
	cfg := NanoConfig{Net: fastNet(81), Accounts: 8, Reps: 2, WorkBits: 16}
	net, err := NewNano(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MH/s against 16-bit work: ~15 blocks/s max.
	rate := net.SpamThrottle(1e6)
	if math.Abs(rate-1e6/65536) > 1e-9 {
		t.Fatalf("throttle = %f", rate)
	}
	cfg2 := NanoConfig{Net: fastNet(82), Accounts: 8, Reps: 2, WorkBits: 0}
	net2, err := NewNano(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(net2.SpamThrottle(1e6), 1) {
		t.Fatal("no work bits should mean no throttle")
	}
}

// withDefaults must only default fields that are actually zero: a
// user-set MinLatency survives an unset MaxLatency, and inverted bounds
// normalize instead of producing a negative sampling span.
func TestNetParamsWithDefaultsPartialLatency(t *testing.T) {
	both := NetParams{}.withDefaults()
	if both.MinLatency != 20*time.Millisecond || both.MaxLatency != 200*time.Millisecond {
		t.Fatalf("unset latencies defaulted to %v/%v", both.MinLatency, both.MaxLatency)
	}
	minOnly := NetParams{MinLatency: 50 * time.Millisecond}.withDefaults()
	if minOnly.MinLatency != 50*time.Millisecond {
		t.Fatalf("user MinLatency overwritten: %v", minOnly.MinLatency)
	}
	if minOnly.MaxLatency != 200*time.Millisecond {
		t.Fatalf("unset MaxLatency = %v, want 200ms default", minOnly.MaxLatency)
	}
	bigMin := NetParams{MinLatency: 500 * time.Millisecond}.withDefaults()
	if bigMin.MinLatency != 500*time.Millisecond || bigMin.MaxLatency != 500*time.Millisecond {
		t.Fatalf("default MaxLatency not raised to meet MinLatency: %v/%v",
			bigMin.MinLatency, bigMin.MaxLatency)
	}
	maxOnly := NetParams{MaxLatency: 80 * time.Millisecond}.withDefaults()
	if maxOnly.MinLatency != 0 || maxOnly.MaxLatency != 80*time.Millisecond {
		t.Fatalf("max-only config perturbed: %v/%v", maxOnly.MinLatency, maxOnly.MaxLatency)
	}
	inverted := NetParams{MinLatency: 300 * time.Millisecond, MaxLatency: 100 * time.Millisecond}.withDefaults()
	if inverted.MinLatency != 100*time.Millisecond || inverted.MaxLatency != 300*time.Millisecond {
		t.Fatalf("inverted bounds not normalized: %v/%v", inverted.MinLatency, inverted.MaxLatency)
	}
	// And a network built from an inverted config must actually run.
	net, err := NewNano(NanoConfig{
		Net: NetParams{
			Nodes: 4, PeerDegree: 2, Seed: 99,
			MinLatency: 300 * time.Millisecond, MaxLatency: 100 * time.Millisecond,
		},
		Accounts: 8, Reps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(2 * time.Second)
}

func TestConsensusString(t *testing.T) {
	if PoW.String() != "pow" || PoS.String() != "pos" || Consensus(9).String() != "unknown" {
		t.Fatal("Consensus names wrong")
	}
}

func TestObservedOrphanRateHelper(t *testing.T) {
	var m ChainMetrics
	m.OrphanRate = 0.05
	m.MeanBlockInterval = time.Minute
	m.Propagation.Add(2.0) // 2 s median propagation
	measured, analytic := observedOrphanRate(m)
	if measured != 0.05 {
		t.Fatal("measured passthrough wrong")
	}
	want := pow.ExpectedOrphanRate(2*time.Second, time.Minute)
	if math.Abs(analytic-want) > 1e-9 {
		t.Fatalf("analytic = %g want %g", analytic, want)
	}
}

func TestBitcoinLedgerParamsRespected(t *testing.T) {
	// A tiny block size forces many small blocks: the assembled block
	// can never exceed the configured byte budget (§VI-A's size cap).
	params := utxo.DefaultParams()
	params.MaxBlockBytes = 2_000
	params.RetargetWindow = 1 << 30
	cfg := BitcoinConfig{
		Net:           fastNet(91),
		Ledger:        params,
		BlockInterval: 10 * time.Second,
		Accounts:      32,
	}
	net, err := NewBitcoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(92))
	payments := workload.Payments(rng, workload.Config{
		Accounts: 32, Rate: 10, Duration: 2 * time.Minute, MaxAmount: 10,
	})
	net.RunWithPayments(2*time.Minute, payments, 5)
	for _, h := range net.Observer().Store().MainChain() {
		blk, _ := net.Observer().Store().Get(h)
		if blk.Size() > params.MaxBlockBytes {
			t.Fatalf("block exceeds byte cap: %d > %d", blk.Size(), params.MaxBlockBytes)
		}
	}
}

func BenchmarkBitcoinNet10Min(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := BitcoinConfig{
			Net:           NetParams{Nodes: 8, PeerDegree: 3, Seed: int64(i), MinLatency: 10 * time.Millisecond, MaxLatency: 100 * time.Millisecond},
			BlockInterval: 30 * time.Second,
			Accounts:      16,
		}
		net, err := NewBitcoin(cfg)
		if err != nil {
			b.Fatal(err)
		}
		net.Run(10 * time.Minute)
	}
}

func BenchmarkNanoNet30Sec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := NanoConfig{
			Net:      NetParams{Nodes: 8, PeerDegree: 3, Seed: int64(i), MinLatency: 10 * time.Millisecond, MaxLatency: 50 * time.Millisecond},
			Accounts: 16,
			Reps:     4,
		}
		net, err := NewNano(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		transfers := workload.Payments(rng, workload.Config{
			Accounts: 16, Rate: 5, Duration: 20 * time.Second, MaxAmount: 5,
		})
		net.RunWithTransfers(30*time.Second, transfers)
	}
}
