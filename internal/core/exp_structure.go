package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/keys"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/utxo"
	"repro/internal/workload"
)

// RunE1BlockchainStructure reproduces Fig. 1: ordered blocks whose
// headers reference the predecessor's hash, transactions committed under
// a Merkle root, and the genesis block with no predecessor. The table
// lists the built chain and verifies both invariants on every block.
func RunE1BlockchainStructure(ctx context.Context, cfg Config) (*metrics.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ring := keys.NewRing("e1", 8)
	alloc := map[keys.Address]uint64{ring.Addr(0): 1_000_000}
	params := utxo.DefaultParams()
	params.InitialDifficulty = 1
	ledger, err := utxo.NewLedger(alloc, params)
	if err != nil {
		return nil, err
	}
	blocks := cfg.count(8)
	for i := 0; i < blocks; i++ {
		tx, err := utxo.NewPayment(ledger.UTXOSet(), ring.Pair(0), ring.Addr(1+i%6), 100, 1)
		if err != nil {
			return nil, err
		}
		if err := ledger.SubmitTx(tx); err != nil {
			return nil, err
		}
		b := ledger.BuildBlock(ring.Addr(7), time.Duration(i+1)*10*time.Minute)
		if _, err := ledger.ProcessBlock(b); err != nil {
			return nil, err
		}
	}

	t := metrics.NewTable("E1 (Fig. 1): blockchain as a data structure",
		"height", "block", "parent", "txs", "merkle-root", "links-ok")
	store := ledger.Store()
	prev := ""
	for _, h := range store.MainChain() {
		b, _ := store.Get(h)
		parent := b.Header.Parent.String()
		if b.Header.Height == 0 {
			parent = "(genesis: none)"
		}
		linkOK := b.Header.Height == 0 || parent == prev
		rootOK := b.Payload.Root() == b.Header.TxRoot
		t.AddRow(
			metrics.U64(b.Header.Height), h.String(), parent,
			metrics.I(b.TxCount()), b.Header.TxRoot.String(),
			fmt.Sprintf("%v/%v", linkOK, rootOK),
		)
		if !linkOK || !rootOK {
			return nil, fmt.Errorf("core: structural invariant broken at height %d", b.Header.Height)
		}
		prev = h.String()
	}
	t.AddNote("every header stores its predecessor's hash; transactions are hashed in a Merkle tree (paper §II-A)")
	t.AddNote("the genesis block hard-codes the initial state and has no predecessor")
	return t, nil
}

// RunE2BlockLattice reproduces Fig. 2: the block-lattice where "every
// account is linked to its own account-chain", each block holding a
// single transaction.
func RunE2BlockLattice(ctx context.Context, cfg Config) (*metrics.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ring := keys.NewRing("e2", 6)
	lat, _, err := lattice.New(ring.Pair(0), 1_000_000, 0)
	if err != nil {
		return nil, err
	}
	// A braid of transfers across four accounts.
	transfers := []struct{ from, to, amount int }{
		{0, 1, 300}, {0, 2, 200}, {1, 3, 100}, {2, 1, 50}, {1, 0, 25},
	}
	for _, tr := range transfers {
		send, err := lat.NewSend(ring.Pair(tr.from), ring.Addr(tr.to), uint64(tr.amount))
		if err != nil {
			return nil, err
		}
		if res := lat.Process(send); res.Status != lattice.Accepted {
			return nil, fmt.Errorf("core: e2 send: %v", res.Status)
		}
		var settle *lattice.Block
		if _, opened := lat.Head(ring.Addr(tr.to)); opened {
			settle, err = lat.NewReceive(ring.Pair(tr.to), send.Hash())
		} else {
			settle, err = lat.NewOpen(ring.Pair(tr.to), send.Hash(), ring.Addr(tr.to))
		}
		if err != nil {
			return nil, err
		}
		if res := lat.Process(settle); res.Status != lattice.Accepted {
			return nil, fmt.Errorf("core: e2 settle: %v", res.Status)
		}
	}
	if err := lat.CheckInvariant(); err != nil {
		return nil, err
	}

	t := metrics.NewTable("E2 (Fig. 2): Nano's DAG, the block-lattice",
		"account", "chain-blocks", "chain (types)", "balance")
	for i := 0; i < 4; i++ {
		chain := lat.Chain(ring.Addr(i))
		types := make([]string, len(chain))
		for j, b := range chain {
			types[j] = b.Type.String()
		}
		t.AddRow(
			ring.Addr(i).String(), metrics.I(len(chain)),
			strings.Join(types, "→"), metrics.U64(lat.Balance(ring.Addr(i))),
		)
	}
	t.AddNote("each account owns a dedicated chain; every block is a single transaction (paper §II-B)")
	t.AddNote("value conservation verified: settled balances + pending = genesis supply")
	return t, nil
}

// RunE3Settlement reproduces Fig. 3: a transfer takes a send and a
// matching receive; until the receive, funds are pending/unsettled, and
// offline receivers never settle ("a node has to be online in order to
// receive a transaction").
func RunE3Settlement(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	run := func(offline map[int]bool) (netsim.NanoMetrics, error) {
		net, err := netsim.NewNano(netsim.NanoConfig{
			Net:              netParams(8, 3, cfg.Seed, 10*time.Millisecond, 60*time.Millisecond),
			Accounts:         16,
			Reps:             4,
			OfflineReceivers: offline,
		})
		if err != nil {
			return netsim.NanoMetrics{}, err
		}
		var transfers []workload.TimedPayment
		n := cfg.count(20)
		for i := 0; i < n; i++ {
			transfers = append(transfers, workload.TimedPayment{
				At:      time.Duration(i+1) * 200 * time.Millisecond,
				Payment: workload.Payment{From: 1 + i%4, To: 8 + i%4, Amount: 3},
			})
		}
		return net.RunWithTransfers(cfg.dur(30*time.Second), transfers), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	online, err := run(nil)
	if err != nil {
		return nil, err
	}
	// Each receiver population is its own simulation; honor cancellation
	// between the two sweep points.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	offline, err := run(map[int]bool{8: true, 9: true, 10: true, 11: true})
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("E3 (Fig. 3): send/receive settlement",
		"receivers", "sends", "settled", "unsettled-at-end")
	t.AddRow("online", metrics.I(online.SendsCreated), metrics.I(online.SettledAtObserver), metrics.I(online.UnsettledAtEnd))
	t.AddRow("offline", metrics.I(offline.SendsCreated), metrics.I(offline.SettledAtObserver), metrics.I(offline.UnsettledAtEnd))
	t.AddNote("a send deducts the sender immediately; funds stay pending until the receiver generates the matching receive (paper §II-B, Fig. 3)")
	t.AddNote("offline receivers leave every transfer unsettled — the paper's stated downside of the two-phase design")
	if offline.UnsettledAtEnd <= online.UnsettledAtEnd {
		return nil, fmt.Errorf("core: e3 shape violated: offline unsettled %d <= online %d",
			offline.UnsettledAtEnd, online.UnsettledAtEnd)
	}
	return t, nil
}
