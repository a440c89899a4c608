package netsim

// Mega-scale regression pins: the struct-of-arrays node core and the
// per-network content catalogs exist so a 10⁴-node network is cheap to
// build and hold. Each bound is the measured cost plus a quarter — it
// catches a return to per-node copies of shared content, per-node map
// churn or per-node setup replay, not normal drift. The account-model pin
// at the end is the one small network here: its cost is the world state
// the network keeps, not the node count.

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/utxo"
	"repro/internal/workload"
)

// scaleHeapAlloc settles the heap and reads the live allocation count.
func scaleHeapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// A 10⁴-node ORV network must stay within a fixed per-node heap budget,
// on the benchmark's scale-gossip nano shape (16 accounts, 4 reps, 3
// transfers, seed 32). A node is a replica over the network's one block
// catalog — a head id per account, two bitsets, a successor column — a
// tracker of compact elections and a few words of SoA seen-state; the
// weight table is the network's. Both bounds are the measured cost plus
// a quarter (PERFORMANCE.md); a return to per-node copies of the block
// index, of the weight table or to map-based elections is several times
// either.
func TestNanoMemoryPerNode10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node construction")
	}
	const nodes = 10_000
	const builtBudget, ranBudget = 1370, 4740
	before := scaleHeapAlloc()
	net, err := NewNano(NanoConfig{
		Net: NetParams{
			Nodes: nodes, PeerDegree: 4, Seed: 32,
			MinLatency: 20 * time.Millisecond, MaxLatency: 200 * time.Millisecond,
		},
		Accounts: 16, Reps: 4, Supply: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	perNode := (scaleHeapAlloc() - before) / nodes
	t.Logf("nano, built: %d bytes/node", perNode)
	if perNode > builtBudget {
		t.Fatalf("nano node costs %d bytes of heap once built, budget is %d", perNode, builtBudget)
	}

	const transfers, span = 3, 10 * time.Second
	for i := 0; i < transfers; i++ {
		net.SubmitTransfer(workload.TimedPayment{
			At:      span * time.Duration(i+1) / (transfers + 1),
			Payment: workload.Payment{From: i, To: (i + 5) % 16, Amount: 5},
		})
	}
	m := net.Run(span + 20*time.Second)
	if m.SettledAtObserver < transfers || m.ConfirmedBlocks < 2*transfers {
		t.Fatalf("run too short to measure: %d of %d transfers settled, %d blocks confirmed", m.SettledAtObserver, transfers, m.ConfirmedBlocks)
	}
	perNode = (scaleHeapAlloc() - before) / nodes
	t.Logf("nano, after %d transfers and %d confirmations: %d bytes/node", m.SettledAtObserver, m.ConfirmedBlocks, perNode)
	if perNode > ranBudget {
		t.Fatalf("nano node costs %d bytes of heap after the run, budget is %d", perNode, ranBudget)
	}
	runtime.KeepAlive(net)
}

// The chain-side budget, on the benchmark's scale-gossip Bitcoin shape
// (16 accounts of 8 genesis outputs, 20 payments in the first 10 s, a
// 200 s horizon, seed 31): a node is a store — a bitset and a main-chain
// id column over the network's one block catalog — a UTXO bitset and a
// mempool of two bitsets and an arrival list over the network's one
// transaction and coin catalog, built as a replica of one genesis ledger.
// Both bounds are the measured cost plus a quarter (PERFORMANCE.md); a
// return to per-node block, tx-index or mempool maps is several times
// either.
func TestBitcoinMemoryPerNode10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node construction")
	}
	const nodes = 10_000
	const builtBudget, ranBudget = 1140, 1660
	ledger := utxo.DefaultParams()
	ledger.RetargetWindow = 1 << 30
	ledger.GenesisOutputsPerAccount = 8
	before := scaleHeapAlloc()
	net, err := NewBitcoin(BitcoinConfig{
		Net: NetParams{
			Nodes: nodes, PeerDegree: 4, Seed: 31,
			MinLatency: 20 * time.Millisecond, MaxLatency: 200 * time.Millisecond,
			SampleBudget: 1 << 18,
		},
		Ledger: ledger, BlockInterval: 30 * time.Second, Accounts: 16, InitialBalance: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	perNode := (scaleHeapAlloc() - before) / nodes
	t.Logf("bitcoin, built: %d bytes/node", perNode)
	if perNode > builtBudget {
		t.Fatalf("bitcoin node costs %d bytes of heap once built, budget is %d", perNode, builtBudget)
	}

	const payments, submitSpan, span = 20, 10 * time.Second, 200 * time.Second
	for i := 0; i < payments; i++ {
		net.SubmitPayment(workload.TimedPayment{
			At:      submitSpan * time.Duration(i) / payments,
			Payment: workload.Payment{From: i % 16, To: (i + 5) % 16, Amount: 10},
		}, 2)
	}
	m := net.Run(span)
	if m.BlocksOnMain < 5 || m.ConfirmedTxs < payments*3/4 {
		t.Fatalf("run too short to measure: %d blocks, %d of %d payments confirmed", m.BlocksOnMain, m.ConfirmedTxs, payments)
	}
	perNode = (scaleHeapAlloc() - before) / nodes
	t.Logf("bitcoin, after %d blocks and %d payments: %d bytes/node", m.BlocksOnMain, m.ConfirmedTxs, perNode)
	if perNode > ranBudget {
		t.Fatalf("bitcoin node costs %d bytes of heap after the run, budget is %d", perNode, ranBudget)
	}
	runtime.KeepAlive(net)
}

// The account-side budget, on the Bitcoin test's shape run as an
// Ethereum PoW network (16 accounts, 20 payments in the first 10 s, a
// 200 s horizon, seed 31): a node is a store and a mempool over the
// network's one block catalog and one execution table, plus a bit per
// block whose post-state it retains. Both bounds are the measured cost
// plus a quarter (PERFORMANCE.md); a ledger that executes every block
// itself and keeps its own post-states, deltas and tx index (22 386 B
// after the run) breaks the second.
func TestEthereumMemoryPerNode10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node construction")
	}
	const nodes = 10_000
	const builtBudget, ranBudget = 1030, 3320
	before := scaleHeapAlloc()
	net, err := NewEthereum(EthereumConfig{
		Net: NetParams{
			Nodes: nodes, PeerDegree: 4, Seed: 31,
			MinLatency: 20 * time.Millisecond, MaxLatency: 200 * time.Millisecond,
			SampleBudget: 1 << 18,
		},
		Consensus: PoW, Accounts: 16, InitialBalance: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	perNode := (scaleHeapAlloc() - before) / nodes
	t.Logf("ethereum, built: %d bytes/node", perNode)
	if perNode > builtBudget {
		t.Fatalf("ethereum node costs %d bytes of heap once built, budget is %d", perNode, builtBudget)
	}

	const payments, submitSpan, span = 20, 10 * time.Second, 200 * time.Second
	for i := 0; i < payments; i++ {
		net.SubmitPayment(workload.TimedPayment{
			At:      submitSpan * time.Duration(i) / payments,
			Payment: workload.Payment{From: i % 16, To: (i + 5) % 16, Amount: 10},
		}, 2)
	}
	m := net.Run(span)
	if m.BlocksOnMain < 5 || m.ConfirmedTxs < payments*3/4 {
		t.Fatalf("run too short to measure: %d blocks, %d of %d payments confirmed", m.BlocksOnMain, m.ConfirmedTxs, payments)
	}
	perNode = (scaleHeapAlloc() - before) / nodes
	t.Logf("ethereum, after %d blocks and %d payments: %d bytes/node", m.BlocksOnMain, m.ConfirmedTxs, perNode)
	if perNode > ranBudget {
		t.Fatalf("ethereum node costs %d bytes of heap after the run, budget is %d", perNode, ranBudget)
	}
	runtime.KeepAlive(net)
}

// The tangle-side budget, on the benchmark's scale-gossip tangle shape
// (16 accounts, confirmation weight 2, 26 transfers in the first 10 s, a
// 30 s run, seed 33): a node is a replica over the network's one vertex
// catalog — two bitsets, an attach-order id list, a slot column of
// weight, tip position and walk stamp, and its tip list. Both bounds are
// the measured cost plus a quarter (PERFORMANCE.md); per-node hash maps
// and vertex and parent columns (1 065 and 3 365 B) break both.
func TestTangleMemoryPerNode10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node construction")
	}
	const nodes = 10_000
	const builtBudget, ranBudget = 785, 1765
	before := scaleHeapAlloc()
	net, err := NewTangle(TangleConfig{
		Net: NetParams{
			Nodes: nodes, PeerDegree: 4, Seed: 33,
			MinLatency: 20 * time.Millisecond, MaxLatency: 200 * time.Millisecond,
			SampleBudget: 1 << 18,
		},
		Accounts: 16, Supply: 1 << 40, ConfirmWeight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	perNode := (scaleHeapAlloc() - before) / nodes
	t.Logf("tangle, built: %d bytes/node", perNode)
	if perNode > builtBudget {
		t.Fatalf("tangle node costs %d bytes of heap once built, budget is %d", perNode, builtBudget)
	}

	const transfers, span = 26, 10 * time.Second
	for i := 0; i < transfers; i++ {
		net.SubmitTransfer(workload.TimedPayment{
			At:      span * time.Duration(i) / transfers,
			Payment: workload.Payment{From: i % 16, To: (i + 5) % 16, Amount: 5},
		})
	}
	m := net.Run(span + 20*time.Second)
	if m.VerticesIssued < transfers || m.ConfirmedAtObserver < transfers/2 {
		t.Fatalf("run too short to measure: %d of %d transfers issued, %d vertices confirmed", m.VerticesIssued, transfers, m.ConfirmedAtObserver)
	}
	perNode = (scaleHeapAlloc() - before) / nodes
	t.Logf("tangle, after %d vertices and %d confirmations: %d bytes/node", m.VerticesIssued, m.ConfirmedAtObserver, perNode)
	if perNode > ranBudget {
		t.Fatalf("tangle node costs %d bytes of heap after the run, budget is %d", perNode, ranBudget)
	}
	runtime.KeepAlive(net)
}

// The account-model budget, on the eth-pos leg of the benchmark's
// chain-saturation workload (8 nodes, 128 accounts, PoS with 4 s blocks,
// 60 payments a second for 24 s): the network keeps each block's
// post-state once, in its execution table, and a block is executed once,
// on an owned state that copies each trie node it touches once. The
// bound is the measured heap, 2 078 016 B, plus a quarter
// (PERFORMANCE.md). A post-state per ledger, each ledger executing every
// block, is 4 896 112 B; copying the root-to-leaf path on every write
// pins every dead intermediate version in the arena slabs and is larger
// still.
func TestEthereumMemoryChainSaturationShape(t *testing.T) {
	const budget = 2_600_000
	before := scaleHeapAlloc()
	net, err := NewEthereum(EthereumConfig{
		Net: NetParams{
			Nodes: 8, PeerDegree: 3, Seed: 14,
			MinLatency: 50 * time.Millisecond, MaxLatency: 500 * time.Millisecond,
		},
		Consensus: PoS, BlockInterval: 4 * time.Second, Accounts: 128, InitialBalance: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	const span = 24 * time.Second
	payments := workload.Payments(rand.New(rand.NewSource(4)), workload.Config{
		Accounts: 128, Rate: 60, Duration: span, MaxAmount: 50,
	})
	m := net.RunWithPayments(span, payments, 1)
	if m.BlocksOnMain < 4 || m.ConfirmedTxs < len(payments)/2 {
		t.Fatalf("run too short to measure: %d blocks, %d of %d payments confirmed", m.BlocksOnMain, m.ConfirmedTxs, len(payments))
	}
	heap := scaleHeapAlloc() - before
	t.Logf("eth-pos, after %d blocks and %d payments: %d bytes of heap", m.BlocksOnMain, m.ConfirmedTxs, heap)
	if heap > budget {
		t.Fatalf("the network holds %d bytes of heap after the run, budget is %d", heap, budget)
	}
	runtime.KeepAlive(net)
}
