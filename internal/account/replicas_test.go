package account

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/hashx"
	"repro/internal/keys"
)

// ledgerPair is a ledger over its network's shared execution table and a
// twin from NewLedger with a table of its own, which executes every block
// it accepts itself. Both are handed the same operations.
type ledgerPair struct{ shared, alone *Ledger }

// agree compares what the two ledgers answer: tip, tip state root, the
// post-state and delta of every probed block, the confirmations of every
// probed transaction and the pool length.
func (p ledgerPair) agree(blocks []*chain.Block, txs []*Tx) error {
	s, a := p.shared, p.alone
	if s.Store().Tip() != a.Store().Tip() {
		return fmt.Errorf("tip %s, alone %s", s.Store().Tip(), a.Store().Tip())
	}
	if s.State().Root() != a.State().Root() {
		return fmt.Errorf("tip state root %s, alone %s", s.State().Root(), a.State().Root())
	}
	for _, b := range blocks {
		h := b.Hash()
		ss, as := s.StateOf(h), a.StateOf(h)
		if (ss == nil) != (as == nil) || ss != nil && ss.Root() != as.Root() {
			return fmt.Errorf("StateOf(%s) differs (nil %v, alone nil %v)", h, ss == nil, as == nil)
		}
		sd, sok := s.DeltaOf(h)
		ad, aok := a.DeltaOf(h)
		if sd != ad || sok != aok {
			return fmt.Errorf("DeltaOf(%s) = %+v/%v, alone %+v/%v", h, sd, sok, ad, aok)
		}
	}
	for _, tx := range txs {
		if got, want := s.Confirmations(tx.ID()), a.Confirmations(tx.ID()); got != want {
			return fmt.Errorf("Confirmations(%s) = %d, alone %d", tx.ID(), got, want)
		}
	}
	if s.PoolLen() != a.PoolLen() {
		return fmt.Errorf("pool %d, alone %d", s.PoolLen(), a.PoolLen())
	}
	return nil
}

// tamper returns a rejected variant of a block built with at least one
// transaction or none: kind 0 changes the header's state root (a new
// hash), kind 1 a receipt's status, or the body's gas when there is no
// receipt, and recommits the body (a new hash), kind 2 makes the same
// change under the honest header — a forged body that shares the honest
// block's hash.
func tamper(b *chain.Block, kind int) *chain.Block {
	if kind == 0 {
		bad := *b
		bad.Header.StateRoot = hashx.Sum([]byte("forged state root"))
		return &bad
	}
	body := *b.Payload.(*BlockBody)
	if len(body.Receipts) > 0 {
		body.Receipts = slices.Clone(body.Receipts)
		rc := *body.Receipts[0]
		rc.Status ^= 1
		body.Receipts[0] = &rc
	} else {
		body.GasUsed++
	}
	bad := &chain.Block{Header: b.Header, Payload: &body}
	if kind == 1 {
		bad.Header.TxRoot = body.Root()
	}
	return bad
}

func FuzzAccountReplicas(f *testing.F) {
	// Pairs of (op + 10*replica, arg).
	f.Add([]byte{0, 0, 1, 0, 12, 1, 22, 1, 10, 0, 11, 3, 2, 2, 24, 1, 4, 2, 15, 0, 3, 1})
	// Two replicas build competing branches carrying the same payment,
	// then each takes the other's: side blocks, reorgs, a second carrier.
	f.Add([]byte{0, 0, 10, 0, 1, 4, 11, 9, 2, 2, 12, 1, 21, 0, 0, 1, 1, 7, 26, 0, 16, 128, 5, 1, 13, 0})
	// Every forged shape, at the replica that built the block and at the
	// others, before and after the honest block arrives.
	f.Add([]byte{0, 0, 1, 0, 4, 3, 4, 4, 14, 5, 14, 3, 24, 4, 12, 1, 0, 2, 1, 5, 24, 8, 22, 3, 25, 0, 5, 0, 15, 1})
	// A chain delivered child-first (orphans, then the cascade), a rival
	// on a state its receiver has since pruned, and pruning everywhere.
	f.Add([]byte{0, 0, 1, 2, 0, 65, 1, 3, 1, 1, 26, 129, 16, 0, 13, 2, 5, 0, 2, 4, 15, 0, 25, 0, 10, 0, 11, 1, 2, 5, 22, 5, 12, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := keys.NewRing("account-replicas", 4)
		params := testParams()
		params.InitialDifficulty = 1 << 10
		newLedger := func() *Ledger {
			l, err := NewLedger(map[keys.Address]uint64{r.Addr(0): 1 << 40, r.Addr(1): 1 << 40}, params)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		root := newLedger()
		pairs := []ledgerPair{{root, newLedger()}, {root.Replica(), newLedger()}, {root.Replica(), newLedger()}}
		blocks := []*chain.Block{root.Genesis()}
		var txs []*Tx
		var clock time.Duration
		deliver := func(p ledgerPair, b *chain.Block) {
			got, gerr := p.shared.ProcessBlock(b)
			want, werr := p.alone.ProcessBlock(b)
			if got.Status != want.Status || fmt.Sprint(gerr) != fmt.Sprint(werr) || len(got.Adopted) != len(want.Adopted) {
				t.Fatalf("ProcessBlock(height %d): %v %v, alone %v %v", b.Header.Height, got.Status, gerr, want.Status, werr)
			}
		}
		mainAt := func(p ledgerPair, arg byte) *chain.Block {
			main := p.shared.Store().MainChain()
			b, _ := p.shared.Store().Get(main[int(arg)%len(main)])
			return b
		}

		const maxOps = 40
		for i, ops := 0, 0; i+1 < len(data) && ops < maxOps; i, ops = i+2, ops+1 {
			p := pairs[int(data[i]/10)%len(pairs)]
			arg := data[i+1]
			clock += time.Duration(1+arg%20) * time.Second
			switch data[i] % 10 {
			case 0: // a payment at this replica: next nonce or one past it, any of three gas prices
				from := int(arg % 2)
				nonce := p.shared.State().Nonce(r.Addr(from)) + uint64(arg>>6&1)
				tx := payTx(r.Pair(from), nonce, r.Addr(2+int(arg>>2)%2), 1+uint64(arg%5), 1+uint64(arg>>3)%3)
				gerr, werr := p.shared.SubmitTx(tx), p.alone.SubmitTx(tx)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("SubmitTx: %v, alone %v", gerr, werr)
				}
				txs = append(txs, tx)
			case 1: // extend this replica's tip from its pool
				b := p.shared.BuildBlock(r.Addr(3), clock)
				blocks = append(blocks, b)
				deliver(p, b)
			case 2: // any block so far: propagation, duplicates, orphans
				deliver(p, blocks[int(arg)%len(blocks)])
			case 3: // an empty rival on a main-chain block here
				parent := mainAt(p, arg).Hash()
				b, gerr := p.shared.BuildBlockOn(parent, r.Addr(2), clock)
				twin, werr := p.alone.BuildBlockOn(parent, r.Addr(2), clock)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("BuildBlockOn: %v, alone %v", gerr, werr)
				}
				if gerr != nil {
					break
				}
				if b.Hash() != twin.Hash() {
					t.Fatal("BuildBlockOn built another block than the lone twin")
				}
				blocks = append(blocks, b)
				deliver(p, b)
			case 4: // a forged variant of a built block
				if len(blocks) < 2 {
					break
				}
				bad := tamper(blocks[1+int(arg/3)%(len(blocks)-1)], int(arg%3))
				blocks = append(blocks, bad)
				deliver(p, bad)
			case 5: // prune deep states
				if got, want := p.shared.PruneStatesBelow(uint64(arg%4)), p.alone.PruneStatesBelow(uint64(arg%4)); got != want {
					t.Fatalf("PruneStatesBelow dropped %d, alone %d", got, want)
				}
			case 6: // another replica's main chain, in order or child-first
				src := pairs[int(arg)%len(pairs)].shared.Store()
				main := src.MainChain()
				if arg >= 128 {
					slices.Reverse(main)
				}
				for _, h := range main {
					b, _ := src.Get(h)
					deliver(p, b)
				}
			}
			for j, q := range pairs {
				if err := q.agree(blocks, txs); err != nil {
					t.Fatalf("step %d (op %d), replica %d: %v", ops, data[i], j, err)
				}
			}
		}
	})
}

// The shared verdict stands in for execution only: every check that
// depends on the block pointer a replica was handed or on the replica's
// own retained states still runs at that replica.
func TestSharedVerdictKeepsReplicaChecks(t *testing.T) {
	r := keys.NewRing("shared-verdict", 4)
	setup := func(t *testing.T) (a *Ledger, good *chain.Block) {
		t.Helper()
		a = newTestLedger(t, r, 2, 10_000_000)
		if err := a.SubmitTx(payTx(r.Pair(0), 0, r.Addr(2), 50, 1)); err != nil {
			t.Fatal(err)
		}
		good = a.BuildBlock(r.Addr(3), 15*time.Second)
		if res, err := a.ProcessBlock(good); err != nil || res.Status != chain.Accepted {
			t.Fatalf("A: %v %v", res.Status, err)
		}
		return a, good
	}
	entry := func(l *Ledger, h hashx.Hash) *execEntry {
		return l.exec.at(chain.BlockID(l.Store().Index().Intern(h)))
	}

	t.Run("forged body under the honest header", func(t *testing.T) {
		a, good := setup(t)
		b := a.Replica()
		if res, _ := b.ProcessBlock(tamper(good, 2)); res.Status != chain.Rejected {
			t.Fatalf("forged body: %v", res.Status)
		}
		if res, err := b.ProcessBlock(good); err != nil || res.Status != chain.Accepted {
			t.Fatalf("honest block after the forgery: %v %v", res.Status, err)
		}
		if b.State().Root() != a.State().Root() || b.Confirmations(good.Payload.(*BlockBody).Txs[0].ID()) != 1 {
			t.Fatal("B does not stand where A does")
		}
	})
	t.Run("value copy with another state root", func(t *testing.T) {
		a, good := setup(t)
		b := a.Replica()
		bad := tamper(good, 0)
		res, err := b.ProcessBlock(bad)
		if res.Status != chain.Rejected || err == nil || err.Error() != "chain: validation: account: state root mismatch" {
			t.Fatalf("copy with a forged state root: %v %v", res.Status, err)
		}
		if entry(a, bad.Hash()).post != nil {
			t.Fatal("a rejection was entered in the execution table")
		}
		if res, err := b.ProcessBlock(good); err != nil || res.Status != chain.Accepted {
			t.Fatalf("honest block: %v %v", res.Status, err)
		}
	})
	t.Run("pruned parent", func(t *testing.T) {
		a, good := setup(t)
		if entry(a, good.Hash()).post == nil {
			t.Fatal("A's verdict is not in the table")
		}
		// C takes a rival at height 1 and prunes the genesis state.
		c := a.Replica()
		rival, err := c.BuildBlockOn(c.Genesis().Hash(), r.Addr(2), 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ProcessBlock(rival); err != nil {
			t.Fatal(err)
		}
		if c.PruneStatesBelow(0) != 1 {
			t.Fatal("C did not prune the genesis state")
		}
		res, err := c.ProcessBlock(good)
		want := fmt.Sprintf("chain: validation: account: no state for parent %s (pruned?)", good.Header.Parent)
		if res.Status != chain.Rejected || err == nil || err.Error() != want {
			t.Fatalf("child of a pruned parent: %v %v, want %q", res.Status, err, want)
		}
		if entry(a, good.Hash()).post == nil || entry(a, good.Hash()).refs != 1 {
			t.Fatal("C's rejection touched A's entry")
		}
	})
	t.Run("one post-state per block across eight replicas", func(t *testing.T) {
		root := newTestLedger(t, r, 2, 10_000_000)
		ledgers := []*Ledger{root}
		for len(ledgers) < 8 {
			ledgers = append(ledgers, root.Replica())
		}
		for i := 0; i < 6; i++ {
			maker := ledgers[i%len(ledgers)]
			tx := payTx(r.Pair(i%2), uint64(i/2), r.Addr(2), 10, 1)
			for _, l := range ledgers {
				if err := l.SubmitTx(tx); err != nil {
					t.Fatal(err)
				}
			}
			b := maker.BuildBlock(r.Addr(3), time.Duration(i+1)*15*time.Second)
			for _, l := range ledgers {
				if res, err := l.ProcessBlock(b); err != nil || res.Status != chain.Accepted {
					t.Fatalf("block %d: %v %v", i, res.Status, err)
				}
			}
		}
		for _, h := range root.Store().MainChain() {
			post := root.postState(h)
			if post == nil {
				t.Fatalf("root retains no state for %s", h)
			}
			for j, l := range ledgers[1:] {
				if l.postState(h) != post {
					t.Fatalf("replica %d holds its own post-state for %s", j+1, h)
				}
			}
			if e, _ := root.retainedEntry(h); e.refs != uint32(len(ledgers)) {
				t.Fatalf("entry of %s counts %d retaining ledgers, want %d", h, e.refs, len(ledgers))
			}
		}
	})
	t.Run("body root memo", func(t *testing.T) {
		_, good := setup(t)
		body := good.Payload.(*BlockBody)
		cp := *body
		cp.GasUsed++
		fresh := &BlockBody{Txs: cp.Txs, Receipts: cp.Receipts, GasLimit: cp.GasLimit, GasUsed: cp.GasUsed}
		if cp.Root() == body.Root() || cp.Root() != fresh.Root() {
			t.Fatal("a struct copy of a body read its original's memoized root")
		}
		if body.Root() != good.Header.TxRoot {
			t.Fatal("the copy disturbed the original's root")
		}
	})
}
