package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/hashx"
	"repro/internal/orv"
	"repro/internal/workload"
)

func TestNanoBatchDefaults(t *testing.T) {
	c := NanoConfig{BatchSize: 8}.withDefaults()
	if c.BatchWindow != 5*time.Millisecond {
		t.Fatalf("BatchWindow default = %v, want 5ms", c.BatchWindow)
	}
	serial := NanoConfig{}.withDefaults()
	if serial.BatchSize > 1 || serial.BatchWindow != 0 {
		t.Fatalf("serial defaults grew batch knobs: %+v", serial)
	}
	custom := NanoConfig{BatchSize: 8, BatchWindow: time.Millisecond}.withDefaults()
	if custom.BatchWindow != time.Millisecond {
		t.Fatalf("user BatchWindow overwritten: %v", custom.BatchWindow)
	}
}

// nanoRun drives one Nano network with a fixed workload and returns the
// metrics plus the network for state inspection.
func nanoRun(t testing.TB, batch int, window time.Duration) (NanoMetrics, *NanoNet) {
	t.Helper()
	cfg := NanoConfig{
		Net:         fastNet(141),
		Accounts:    24,
		Reps:        4,
		BatchSize:   batch,
		BatchWindow: window,
	}
	net, err := NewNano(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(142))
	transfers := workload.Payments(rng, workload.Config{
		Accounts: 24, Rate: 6, Duration: 30 * time.Second, MaxAmount: 10,
	})
	return net.RunWithTransfers(time.Minute, transfers), net
}

// The tentpole guarantee: BatchSize <= 1 is the historical serial path —
// an explicit 1 and an unset knob produce byte-identical runs.
func TestNanoBatchSizeOneMatchesSerial(t *testing.T) {
	serial, serialNet := nanoRun(t, 0, 0)
	one, oneNet := nanoRun(t, 1, 0)
	if serial.SendsCreated != one.SendsCreated ||
		serial.SettledAtObserver != one.SettledAtObserver ||
		serial.ConfirmedBlocks != one.ConfirmedBlocks ||
		serial.MessagesSent != one.MessagesSent ||
		serial.BytesSent != one.BytesSent ||
		serial.VotesSent != one.VotesSent {
		t.Fatalf("BatchSize=1 diverged from unset:\nserial: %+v\nbatch1: %+v", serial, one)
	}
	if one.GossipBatches != 0 || one.GossipBatchedBlocks != 0 {
		t.Fatalf("serial run recorded gossip batches: %+v", one)
	}
	for i := range serialNet.nodes {
		for acct := 0; acct < 24; acct++ {
			a, _ := serialNet.nodes[i].lat.Head(serialNet.Ring().Addr(acct))
			b, _ := oneNet.nodes[i].lat.Head(oneNet.Ring().Addr(acct))
			if a != b {
				t.Fatalf("node %d account %d head diverged between unset and BatchSize=1", i, acct)
			}
		}
	}
}

// Batched gossip settlement must still settle the workload, confirm by
// vote, relay every block exactly once per link, and converge all
// replicas — with the ingest queue actually batching.
func TestNanoBatchedGossipConverges(t *testing.T) {
	m, net := nanoRun(t, 8, 5*time.Millisecond)
	if m.GossipBatches == 0 || m.GossipBatchedBlocks == 0 {
		t.Fatalf("batching enabled but no batches flushed: %+v", m)
	}
	if m.GossipBatchedBlocks < m.GossipBatches {
		t.Fatalf("batch accounting inverted: %d blocks in %d batches",
			m.GossipBatchedBlocks, m.GossipBatches)
	}
	if m.SendsCreated == 0 {
		t.Fatal("no sends created")
	}
	if frac := float64(m.SettledAtObserver) / float64(m.SendsCreated); frac < 0.9 {
		t.Fatalf("only %.0f%% of sends settled under batching", frac*100)
	}
	if m.ConfirmedBlocks == 0 {
		t.Fatal("no blocks confirmed by vote under batching")
	}
	// All replicas converge on all account heads and conserve value.
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

// A fork injected into a batching network must still be detected and
// resolved by representative vote on every replica.
func TestNanoBatchedDoubleSpendResolved(t *testing.T) {
	cfg := NanoConfig{
		Net:         fastNet(151),
		Accounts:    16,
		Reps:        4,
		BatchSize:   4,
		BatchWindow: 2 * time.Millisecond,
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
		t.Fatal("observer never detected the fork under batching")
	}
	head, ok := net.nodes[0].lat.Head(net.Ring().Addr(5))
	if !ok {
		t.Fatal("attacker account missing")
	}
	for i, node := range net.nodes[1:] {
		other, _ := node.lat.Head(net.Ring().Addr(5))
		if other != head {
			t.Fatalf("node %d disagrees on fork winner under batching", i+1)
		}
	}
	for i, node := range net.nodes {
		if err := node.lat.CheckInvariant(); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
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

// BenchmarkNanoGossipBatch measures live-gossip settlement serially
// versus with batched ingest under a block flood on consumer-grade
// hardware budgets (§VI-B: throughput "determined by the quality of
// consumer grade hardware"). The batched path fans signature and work
// checks across host cores via lattice.ProcessBatch — the wall-clock
// ns/op gain on multi-core hosts — and amortizes the modeled per-block
// budget across BatchCores, so the simulated throughput columns
// (sim-blocks/s, settled-frac) show the lifted hardware ceiling on any
// host. One representative keeps vote traffic proportional to
// confirmations, so block validation — the work the ingest queue
// pipelines — dominates, as on a real node catching up with a flood.
func BenchmarkNanoGossipBatch(b *testing.B) {
	for _, batch := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var bps, settledFrac float64
			for i := 0; i < b.N; i++ {
				cfg := NanoConfig{
					Net: NetParams{
						Nodes: 8, PeerDegree: 3, Seed: int64(i + 1),
						MinLatency: 5 * time.Millisecond, MaxLatency: 30 * time.Millisecond,
					},
					Accounts:     128,
					Reps:         1,
					BatchSize:    batch,
					BatchWindow:  25 * time.Millisecond, // gossip-flood fill
					ProcPerBlock: 3 * time.Millisecond,  // consumer-grade validation
					ProcPerVote:  300 * time.Microsecond,
				}
				net, err := NewNano(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(i + 1)))
				transfers := workload.Payments(rng, workload.Config{
					Accounts: 128, Rate: 400, Duration: 10 * time.Second, MaxAmount: 5,
				})
				m := net.RunWithTransfers(15*time.Second, transfers)
				if m.SettledAtObserver == 0 {
					b.Fatal("nothing settled")
				}
				bps += m.BPS
				settledFrac += float64(m.SettledAtObserver) / float64(m.SendsCreated)
			}
			b.ReportMetric(bps/float64(b.N), "sim-blocks/s")
			b.ReportMetric(settledFrac/float64(b.N), "settled-frac")
		})
	}
}
