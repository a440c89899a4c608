package netsim

// Mega-scale regression pins: the struct-of-arrays node core exists so
// a 10⁴-node network is cheap to build and hold. The bound is generous
// (~3× the measured cost) — it catches a return to per-node map churn
// or per-node setup replay, not normal drift.

import (
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

// A 10⁴-node ORV network must stay within a fixed per-node heap
// budget. The dominant cost is the cloned per-node lattice (shared
// immutable blocks, private bookkeeping); the SoA seen-state adds a
// few words per node.
func TestNanoMemoryPerNode10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node construction")
	}
	const nodes = 10_000
	before := scaleHeapAlloc()
	net, err := NewNano(NanoConfig{
		Net: NetParams{
			Nodes: nodes, PeerDegree: 4, Seed: 1,
			MinLatency: 20 * time.Millisecond, MaxLatency: 200 * time.Millisecond,
		},
		Accounts: 16, Reps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	perNode := (scaleHeapAlloc() - before) / nodes
	t.Logf("nano: %d bytes/node", perNode)
	if perNode > 32<<10 {
		t.Fatalf("nano node costs %d bytes of heap, budget is %d", perNode, 32<<10)
	}
	runtime.KeepAlive(net)
}

// The chain-side budget, on E19's 10⁴-node shape (16 accounts of 8 genesis
// outputs, 20 payments, five or more blocks): a node is a block store, a
// mempool and a bitset over the network's one coin catalog, built as a
// replica of one genesis ledger. Both bounds are the measured cost plus a
// quarter (PERFORMANCE.md, the BENCH_020 story); a return to per-node
// copies of the coins, their index or their undo journals is several
// times either.
func TestBitcoinMemoryPerNode10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node construction")
	}
	const nodes = 10_000
	const builtBudget, ranBudget = 3940, 8480
	ledger := utxo.DefaultParams()
	ledger.RetargetWindow = 1 << 30
	ledger.GenesisOutputsPerAccount = 8
	before := scaleHeapAlloc()
	net, err := NewBitcoin(BitcoinConfig{
		Net: NetParams{
			Nodes: nodes, PeerDegree: 4, Seed: 1,
			MinLatency: 20 * time.Millisecond, MaxLatency: 200 * time.Millisecond,
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

	const payments, span = 20, 200 * time.Second
	for i := 0; i < payments; i++ {
		net.SubmitPayment(workload.TimedPayment{
			At:      span / 2 * time.Duration(i) / payments,
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
