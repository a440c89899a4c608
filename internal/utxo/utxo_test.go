package utxo

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chain"
	"repro/internal/hashx"
	"repro/internal/keys"
)

// testParams keeps difficulty and block size small for unit tests.
func testParams() Params {
	p := DefaultParams()
	p.InitialDifficulty = 1
	p.MaxBlockBytes = 100_000
	return p
}

// ring returns n deterministic identities for a test.
func ring(n int) *keys.Ring { return keys.NewRing("utxo-test", n) }

// newTestLedger funds the first nFunded ring accounts with 1000 units each.
func newTestLedger(t *testing.T, r *keys.Ring, nFunded int) *Ledger {
	t.Helper()
	alloc := make(map[keys.Address]uint64, nFunded)
	for i := 0; i < nFunded; i++ {
		alloc[r.Addr(i)] = 1000
	}
	l, err := NewLedger(alloc, testParams())
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	return l
}

func TestSubsidyHalving(t *testing.T) {
	cases := []struct {
		height uint64
		want   uint64
	}{
		{0, 50}, {209_999, 50}, {210_000, 25}, {419_999, 25}, {420_000, 12},
		{210_000 * 64, 0}, {210_000 * 100, 0},
	}
	for _, tc := range cases {
		if got := Subsidy(tc.height, 50, 210_000); got != tc.want {
			t.Fatalf("Subsidy(%d) = %d, want %d", tc.height, got, tc.want)
		}
	}
	if Subsidy(5, 50, 0) != 50 {
		t.Fatal("zero halving interval should mean no halving")
	}
}

func TestTxIDCoversSignature(t *testing.T) {
	r := ring(2)
	tx := &Tx{
		Ins:  []TxIn{{Prev: Outpoint{TxID: hashx.Sum([]byte("prev")), Index: 0}}},
		Outs: []TxOut{{Value: 10, Owner: r.Addr(1)}},
	}
	if err := tx.Sign(0, r.Pair(0)); err != nil {
		t.Fatal(err)
	}
	// A Tx is immutable after ID(): tamper with a deep copy.
	tampered := &Tx{Ins: []TxIn{tx.Ins[0]}, Outs: tx.Outs}
	tampered.Ins[0].Sig = append([]byte(nil), tx.Ins[0].Sig...)
	tampered.Ins[0].Sig[0] ^= 0xFF
	if tampered.ID() == tx.ID() {
		t.Fatal("signature change should change the tx ID")
	}
	if err := tx.Sign(5, r.Pair(0)); err == nil {
		t.Fatal("signing out-of-range input should fail")
	}
}

func TestSigHashExcludesSignature(t *testing.T) {
	r := ring(1)
	tx := &Tx{Ins: []TxIn{{Prev: Outpoint{Index: 1}}}, Outs: []TxOut{{Value: 1, Owner: r.Addr(0)}}}
	before := tx.SigHash()
	tx.SignAll(r.Pair(0))
	if tx.SigHash() != before {
		t.Fatal("SigHash must not cover signatures")
	}
}

func TestSetApplyAndCheck(t *testing.T) {
	r := ring(3)
	set := NewSet()
	fund := NewCoinbase(1, r.Addr(0), 100)
	if _, err := set.applyTx(fund); err != nil {
		t.Fatal(err)
	}
	if set.Balance(r.Addr(0)) != 100 || set.TotalValue() != 100 || set.Len() != 1 {
		t.Fatalf("post-fund set wrong: bal=%d total=%d len=%d",
			set.Balance(r.Addr(0)), set.TotalValue(), set.Len())
	}

	pay := &Tx{
		Ins: []TxIn{{Prev: Outpoint{TxID: fund.ID(), Index: 0}}},
		Outs: []TxOut{
			{Value: 60, Owner: r.Addr(1)},
			{Value: 30, Owner: r.Addr(0)}, // change; 10 is fee
		},
	}
	pay.SignAll(r.Pair(0))
	fee, err := set.CheckTx(pay)
	if err != nil {
		t.Fatal(err)
	}
	if fee != 10 {
		t.Fatalf("fee = %d, want 10", fee)
	}
}

func TestCheckTxRejections(t *testing.T) {
	r := ring(3)
	set := NewSet()
	fund := NewCoinbase(1, r.Addr(0), 100)
	set.applyTx(fund)
	op := Outpoint{TxID: fund.ID(), Index: 0}

	t.Run("missing output", func(t *testing.T) {
		tx := &Tx{Ins: []TxIn{{Prev: Outpoint{TxID: hashx.Sum([]byte("no")), Index: 0}}},
			Outs: []TxOut{{Value: 1, Owner: r.Addr(1)}}}
		tx.SignAll(r.Pair(0))
		if _, err := set.CheckTx(tx); !errors.Is(err, ErrMissingOutput) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("duplicate input", func(t *testing.T) {
		tx := &Tx{Ins: []TxIn{{Prev: op}, {Prev: op}},
			Outs: []TxOut{{Value: 1, Owner: r.Addr(1)}}}
		tx.SignAll(r.Pair(0))
		if _, err := set.CheckTx(tx); !errors.Is(err, ErrMissingOutput) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("wrong owner", func(t *testing.T) {
		tx := &Tx{Ins: []TxIn{{Prev: op}}, Outs: []TxOut{{Value: 1, Owner: r.Addr(1)}}}
		tx.SignAll(r.Pair(1)) // signed by non-owner
		if _, err := set.CheckTx(tx); !errors.Is(err, ErrWrongOwner) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad signature", func(t *testing.T) {
		tx := &Tx{Ins: []TxIn{{Prev: op}}, Outs: []TxOut{{Value: 1, Owner: r.Addr(1)}}}
		tx.SignAll(r.Pair(0))
		tx.Ins[0].Sig[0] ^= 0xFF
		if _, err := set.CheckTx(tx); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("overspend", func(t *testing.T) {
		tx := &Tx{Ins: []TxIn{{Prev: op}}, Outs: []TxOut{{Value: 101, Owner: r.Addr(1)}}}
		tx.SignAll(r.Pair(0))
		if _, err := set.CheckTx(tx); !errors.Is(err, ErrInsufficient) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("coinbase refused", func(t *testing.T) {
		if _, err := set.CheckTx(NewCoinbase(2, r.Addr(0), 1)); err == nil {
			t.Fatal("CheckTx should refuse coinbase")
		}
	})
}

func TestApplyBlockAndUndoRoundTrip(t *testing.T) {
	r := ring(3)
	set := NewSet()
	fund := NewCoinbase(1, r.Addr(0), 100)
	set.applyTx(fund)

	pay := &Tx{
		Ins:  []TxIn{{Prev: Outpoint{TxID: fund.ID(), Index: 0}}},
		Outs: []TxOut{{Value: 90, Owner: r.Addr(1)}}, // fee 10
	}
	pay.SignAll(r.Pair(0))
	coinbase := NewCoinbase(2, r.Addr(2), 50+10) // subsidy + fees
	body := &BlockBody{Txs: []*Tx{coinbase, pay}}

	totalBefore := set.TotalValue()
	if err := set.ApplyBlock(body, 50); err != nil {
		t.Fatal(err)
	}
	if set.Balance(r.Addr(1)) != 90 || set.Balance(r.Addr(2)) != 60 || set.Balance(r.Addr(0)) != 0 {
		t.Fatalf("balances wrong: %d/%d/%d",
			set.Balance(r.Addr(0)), set.Balance(r.Addr(1)), set.Balance(r.Addr(2)))
	}
	// Supply grew by exactly the subsidy (fees just moved).
	if set.TotalValue() != totalBefore+50 {
		t.Fatalf("supply = %d, want %d", set.TotalValue(), totalBefore+50)
	}
	set.UndoBlock(body)
	if set.Balance(r.Addr(0)) != 100 || set.TotalValue() != totalBefore || set.Len() != 1 {
		t.Fatal("undo did not restore the set")
	}
}

func TestApplyBlockCoinbaseRules(t *testing.T) {
	r := ring(2)
	set := NewSet()
	fund := NewCoinbase(1, r.Addr(0), 100)
	set.applyTx(fund)

	t.Run("greedy coinbase rejected", func(t *testing.T) {
		body := &BlockBody{Txs: []*Tx{NewCoinbase(2, r.Addr(1), 51)}}
		if err := set.ApplyBlock(body, 50); !errors.Is(err, ErrCoinbaseValue) {
			t.Fatalf("err = %v", err)
		}
		if set.Len() != 1 {
			t.Fatal("failed apply must leave set unchanged")
		}
	})
	t.Run("coinbase not first rejected", func(t *testing.T) {
		pay := &Tx{Ins: []TxIn{{Prev: Outpoint{TxID: fund.ID(), Index: 0}}},
			Outs: []TxOut{{Value: 100, Owner: r.Addr(1)}}}
		pay.SignAll(r.Pair(0))
		body := &BlockBody{Txs: []*Tx{pay, NewCoinbase(2, r.Addr(1), 50)}}
		if err := set.ApplyBlock(body, 50); err == nil {
			t.Fatal("coinbase in position 1 accepted")
		}
		if set.Balance(r.Addr(0)) != 100 {
			t.Fatal("failed apply must roll back partial state")
		}
	})
	t.Run("two coinbases rejected", func(t *testing.T) {
		body := &BlockBody{Txs: []*Tx{NewCoinbase(2, r.Addr(1), 25), NewCoinbase(3, r.Addr(1), 25)}}
		if err := set.ApplyBlock(body, 50); err == nil {
			t.Fatal("two coinbases accepted")
		}
	})
}

// Property: random valid payment chains conserve value minus fees, and
// undoing everything restores the initial state exactly.
func TestQuickValueConservation(t *testing.T) {
	r := ring(8)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := NewSet()
		fund := NewCoinbase(1, r.Addr(0), 1_000_000)
		set.applyTx(fund)
		supply := set.TotalValue()

		var applied []*BlockBody
		for round := 0; round < 5; round++ {
			// Pick a funded sender and pay a random recipient.
			var sender int
			for i := 0; i < 8; i++ {
				if set.Balance(r.Addr(i)) > 100 {
					sender = i
					break
				}
			}
			to := rng.Intn(8)
			amount := uint64(rng.Intn(50) + 1)
			fee := uint64(rng.Intn(5))
			tx, err := NewPayment(set, r.Pair(sender), r.Addr(to), amount, fee)
			if err != nil {
				return false
			}
			coinbase := NewCoinbase(uint64(round+2), r.Addr(7), 50+fee)
			body := &BlockBody{Txs: []*Tx{coinbase, tx}}
			if err := set.ApplyBlock(body, 50); err != nil {
				return false
			}
			applied = append(applied, body)
			supply += 50
			if set.TotalValue() != supply {
				return false
			}
		}
		for i := len(applied) - 1; i >= 0; i-- {
			set.UndoBlock(applied[i])
		}
		return set.TotalValue() == 1_000_000 && set.Balance(r.Addr(0)) == 1_000_000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMempoolOrderingAndConflicts(t *testing.T) {
	r := ring(4)
	set := NewSet()
	// Three outputs for account 0 so we can build three independent txs.
	for i := 0; i < 3; i++ {
		set.applyTx(NewCoinbase(uint64(i+1), r.Addr(0), 100))
	}
	pool := NewMempool(set)
	ops := set.OutpointsOf(r.Addr(0))

	mkTx := func(op Outpoint, fee uint64) *Tx {
		tx := &Tx{Ins: []TxIn{{Prev: op}},
			Outs: []TxOut{{Value: 100 - fee, Owner: r.Addr(1)}}}
		tx.SignAll(r.Pair(0))
		return tx
	}
	low := mkTx(ops[0], 1)
	mid := mkTx(ops[1], 5)
	high := mkTx(ops[2], 20)
	for _, tx := range []*Tx{low, mid, high} {
		if err := pool.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Len() != 3 || pool.Bytes() == 0 {
		t.Fatalf("pool len=%d bytes=%d", pool.Len(), pool.Bytes())
	}
	if err := pool.Add(low); !errors.Is(err, ErrPoolDup) {
		t.Fatalf("duplicate add err = %v", err)
	}
	// A conflicting spend of ops[0] must be rejected (first-seen rule).
	rival := mkTx(ops[0], 50)
	if err := pool.Add(rival); !errors.Is(err, ErrPoolConflict) {
		t.Fatalf("conflict err = %v", err)
	}
	// Assembly must order by fee rate.
	txs, _ := pool.Assemble(1_000_000)
	if len(txs) != 3 {
		t.Fatalf("assembled %d txs", len(txs))
	}
	if txs[0].ID() != high.ID() || txs[2].ID() != low.ID() {
		t.Fatal("assembly not fee-ordered")
	}
	// A tight budget takes only the best-paying tx.
	small, _ := pool.Assemble(high.EncodedSize())
	if len(small) != 1 || small[0].ID() != high.ID() {
		t.Fatal("size-capped assembly wrong")
	}
	// Confirming high evicts it; confirming a rival spend evicts victims.
	pool.RemoveConfirmed([]*Tx{high})
	if pool.Contains(high.ID()) {
		t.Fatal("confirmed tx still pooled")
	}
	if _, ok := pool.FeeOf(mid.ID()); !ok {
		t.Fatal("unrelated tx evicted")
	}
}

func TestMempoolRejectsCoinbaseAndUnfunded(t *testing.T) {
	r := ring(2)
	set := NewSet()
	pool := NewMempool(set)
	if err := pool.Add(NewCoinbase(1, r.Addr(0), 50)); err == nil {
		t.Fatal("coinbase pooled")
	}
	tx := &Tx{Ins: []TxIn{{Prev: Outpoint{TxID: hashx.Sum([]byte("x")), Index: 0}}},
		Outs: []TxOut{{Value: 1, Owner: r.Addr(1)}}}
	tx.SignAll(r.Pair(0))
	if err := pool.Add(tx); err == nil {
		t.Fatal("unfunded tx pooled")
	}
}

func TestLedgerMineAndConfirm(t *testing.T) {
	r := ring(4)
	l := newTestLedger(t, r, 2)
	miner := r.Addr(3)

	tx, err := NewPayment(l.UTXOSet(), r.Pair(0), r.Addr(2), 250, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	b := l.BuildBlock(miner, time.Minute)
	if b.TxCount() != 2 { // coinbase + payment
		t.Fatalf("block has %d txs", b.TxCount())
	}
	res, err := l.ProcessBlock(b)
	if err != nil || res.Status != chain.Accepted {
		t.Fatalf("ProcessBlock: %v %v", res.Status, err)
	}
	if l.Balance(r.Addr(2)) != 250 {
		t.Fatalf("recipient balance = %d", l.Balance(r.Addr(2)))
	}
	if l.Balance(r.Addr(0)) != 1000-255 {
		t.Fatalf("sender balance = %d", l.Balance(r.Addr(0)))
	}
	wantMiner := Subsidy(1, l.Params().InitialSubsidy, l.Params().HalvingInterval) + 5
	if l.Balance(miner) != wantMiner {
		t.Fatalf("miner balance = %d, want %d", l.Balance(miner), wantMiner)
	}
	if got := l.Confirmations(tx.ID()); got != 1 {
		t.Fatalf("confirmations = %d, want 1", got)
	}
	if l.Pool().Len() != 0 {
		t.Fatal("mined tx still pooled")
	}
	// More blocks deepen the confirmation.
	for i := 0; i < 5; i++ {
		b := l.BuildBlock(miner, time.Duration(i+2)*time.Minute)
		if _, err := l.ProcessBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Confirmations(tx.ID()); got != 6 {
		t.Fatalf("confirmations = %d, want 6", got)
	}
}

// The §IV-A double-spend story end to end: a payment confirmed on the main
// chain is reversed when a heavier attacker branch with a conflicting
// spend reorganizes the ledger; the merchant's confirmations drop to 0.
func TestLedgerReorgDoubleSpend(t *testing.T) {
	r := ring(4)
	attacker, victim, minerA, minerB := r.Pair(0), r.Addr(1), r.Addr(2), r.Addr(3)
	l := newTestLedger(t, r, 1) // only attacker funded

	// Honest branch: attacker pays the victim, block mined on top.
	honest, err := NewPayment(l.UTXOSet(), attacker, victim, 600, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SubmitTx(honest); err != nil {
		t.Fatal(err)
	}
	b1 := l.BuildBlock(minerA, 1*time.Minute)
	if _, err := l.ProcessBlock(b1); err != nil {
		t.Fatal(err)
	}
	if l.Confirmations(honest.ID()) != 1 || l.Balance(victim) != 600 {
		t.Fatal("honest payment not confirmed")
	}

	// Attacker branch: a second ledger replica sees the same genesis but
	// not b1, and mines the conflicting self-payment plus one more block.
	alloc := map[keys.Address]uint64{attacker.Address(): 1000}
	evil, err := NewLedger(alloc, testParams())
	if err != nil {
		t.Fatal(err)
	}
	conflict, err := NewPayment(evil.UTXOSet(), attacker, attacker.Address(), 600, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := evil.SubmitTx(conflict); err != nil {
		t.Fatal(err)
	}
	e1 := evil.BuildBlock(minerB, 1*time.Minute)
	if _, err := evil.ProcessBlock(e1); err != nil {
		t.Fatal(err)
	}
	e2 := evil.BuildBlock(minerB, 2*time.Minute)
	if _, err := evil.ProcessBlock(e2); err != nil {
		t.Fatal(err)
	}

	// The victim's node receives the longer attacker branch.
	if res, err := l.ProcessBlock(e1); err != nil || res.Status != chain.AcceptedSide {
		t.Fatalf("e1: %v %v", res.Status, err)
	}
	res, err := l.ProcessBlock(e2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != chain.AcceptedReorg {
		t.Fatalf("e2 status = %v, want reorg", res.Status)
	}
	// The double spend succeeded: victim's money is gone, merchant sees
	// zero confirmations again.
	if l.Balance(victim) != 0 {
		t.Fatalf("victim balance after reorg = %d, want 0", l.Balance(victim))
	}
	if l.Confirmations(honest.ID()) != 0 {
		t.Fatal("orphaned payment still reports confirmations")
	}
	// The honest tx conflicts with the attacker's spend, so reinjection
	// must have dropped it.
	if l.Pool().Contains(honest.ID()) {
		t.Fatal("conflicting tx must not be reinjected")
	}
}

func TestLedgerRetargetsDifficulty(t *testing.T) {
	r := ring(2)
	p := testParams()
	p.RetargetWindow = 4
	p.TargetInterval = 10 * time.Minute
	p.InitialDifficulty = 1000
	alloc := map[keys.Address]uint64{r.Addr(0): 1000}
	l, err := NewLedger(alloc, p)
	if err != nil {
		t.Fatal(err)
	}
	// Mine the first window at double speed (5-minute blocks). Like
	// Bitcoin, the retarget measures first-to-last timestamps of the
	// window, i.e. window-1 = 3 intervals: actual 15 min vs expected
	// 40 min, so difficulty scales by 8/3.
	now := time.Duration(0)
	for i := 0; i < 4; i++ {
		d := l.NextDifficulty()
		if i < 3 && d != 1000 {
			t.Fatalf("difficulty changed mid-window at block %d: %g", i, d)
		}
		now += 5 * time.Minute
		b := l.BuildBlock(r.Addr(1), now)
		if _, err := l.ProcessBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	d := l.NextDifficulty()
	if d < 2600 || d > 2700 {
		t.Fatalf("retargeted difficulty = %g, want ≈2666.7 (8/3 of 1000)", d)
	}
}

func TestNewPaymentInsufficient(t *testing.T) {
	r := ring(2)
	l := newTestLedger(t, r, 1)
	if _, err := NewPayment(l.UTXOSet(), r.Pair(0), r.Addr(1), 5000, 0); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewPayment(l.UTXOSet(), r.Pair(1), r.Addr(0), 1, 0); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("unfunded sender err = %v", err)
	}
}

func TestLedgerBytesGrow(t *testing.T) {
	r := ring(2)
	l := newTestLedger(t, r, 1)
	before := l.LedgerBytes()
	b := l.BuildBlock(r.Addr(1), time.Minute)
	if _, err := l.ProcessBlock(b); err != nil {
		t.Fatal(err)
	}
	if l.LedgerBytes() <= before {
		t.Fatal("ledger size should grow with each block")
	}
}

func BenchmarkCheckTx(b *testing.B) {
	r := keys.NewRing("bench", 2)
	set := NewSet()
	fund := NewCoinbase(1, r.Addr(0), 1000)
	set.applyTx(fund)
	tx := &Tx{Ins: []TxIn{{Prev: Outpoint{TxID: fund.ID(), Index: 0}}},
		Outs: []TxOut{{Value: 999, Owner: r.Addr(1)}}}
	tx.SignAll(r.Pair(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := set.CheckTx(tx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildAndProcessBlock(b *testing.B) {
	r := keys.NewRing("bench2", 3)
	alloc := map[keys.Address]uint64{r.Addr(0): 1 << 40}
	l, err := NewLedger(alloc, testParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := NewPayment(l.UTXOSet(), r.Pair(0), r.Addr(1), 100, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.SubmitTx(tx); err != nil {
			b.Fatal(err)
		}
		blk := l.BuildBlock(r.Addr(2), time.Duration(i)*time.Minute)
		if _, err := l.ProcessBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
}

// Regression: blocks delivered out of order wait in the orphan pool and
// cascade in when the missing ancestor arrives — and the UTXO set, tx
// index and mempool must follow the cascade. Before the fix, Store.Add
// adopted orphans internally but reported only the first block, so a
// reordered catch-up burst left the ledger's state layer behind its own
// main chain (confirmed txs invisible, balances stale).
func TestProcessBlockOutOfOrderAdoption(t *testing.T) {
	r := ring(4)
	src := newTestLedger(t, r, 2)
	dst := newTestLedger(t, r, 2)

	tx, err := NewPayment(src.UTXOSet(), r.Pair(0), r.Addr(3), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if err := dst.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	miner := r.Addr(2)
	var blocks []*chain.Block
	for i := 1; i <= 3; i++ {
		b := src.BuildBlock(miner, time.Duration(i)*time.Second)
		if res, err := src.ProcessBlock(b); err != nil || res.Status != chain.Accepted {
			t.Fatalf("source block %d: %v %v", i, res.Status, err)
		}
		blocks = append(blocks, b)
	}
	// Deliver 2, 3 first (orphaned), then 1 (cascade adoption).
	for _, i := range []int{1, 2, 0} {
		if _, err := dst.ProcessBlock(blocks[i]); err != nil {
			t.Fatalf("out-of-order delivery: %v", err)
		}
	}
	if dst.Height() != 3 || dst.Store().Tip() != src.Store().Tip() {
		t.Fatalf("destination did not adopt the chain: height %d", dst.Height())
	}
	if got := dst.Confirmations(tx.ID()); got != 3 {
		t.Fatalf("confirmations after cascade = %d, want 3", got)
	}
	if got := dst.Balance(r.Addr(3)); got != 100 {
		t.Fatalf("recipient balance after cascade = %d, want 100", got)
	}
	if dst.Pool().Contains(tx.ID()) {
		t.Fatal("confirmed tx still pooled after cascade adoption")
	}
}

// newPaymentBySort is NewPaymentAvoiding as it stood before coin
// selection stopped sorting: filter the sender's outpoints through
// avoid, order all of them (value descending, then TxID, then Index)
// with a set lookup per comparison, gather until amount+fee is covered.
// Kept as the reference the selecting implementation must match input
// for input, error text included.
func newPaymentBySort(set *Set, avoid func(Outpoint) bool, from *keys.KeyPair, to keys.Address, amount, fee uint64) (*Tx, error) {
	need := amount + fee
	if need < amount {
		return nil, ErrValueOverflow
	}
	ops := set.OutpointsOf(from.Address())
	if avoid != nil {
		kept := ops[:0]
		for _, op := range ops {
			if !avoid(op) {
				kept = append(kept, op)
			}
		}
		ops = kept
	}
	sort.Slice(ops, func(i, j int) bool {
		oi, _ := set.Get(ops[i])
		oj, _ := set.Get(ops[j])
		if oi.Value != oj.Value {
			return oi.Value > oj.Value
		}
		if c := ops[i].TxID.Cmp(ops[j].TxID); c != 0 {
			return c < 0
		}
		return ops[i].Index < ops[j].Index
	})
	tx := &Tx{}
	var gathered uint64
	for _, op := range ops {
		out, _ := set.Get(op)
		tx.Ins = append(tx.Ins, TxIn{Prev: op})
		gathered += out.Value
		if gathered >= need {
			break
		}
	}
	if gathered < need {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrInsufficient, gathered, need)
	}
	tx.Outs = append(tx.Outs, TxOut{Value: amount, Owner: to})
	if change := gathered - need; change > 0 {
		tx.Outs = append(tx.Outs, TxOut{Value: change, Owner: from.Address()})
	}
	tx.SignAll(from)
	return tx, nil
}

// Property: over random sets — few distinct values so ties are common,
// multi-output transactions so ties fall through to Index, spends in
// between so the owner index is in swap-remove order — selection picks
// exactly the inputs the full sort picks, for every shape of request:
// one coin suffices, the best coin is hidden by avoid, several inputs
// are needed, funds fall short, nothing is spendable.
func TestNewPaymentMatchesSortOracle(t *testing.T) {
	r := ring(4)
	sender, to := r.Pair(0), r.Addr(3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := NewSet()
		for h, mints := 1, 1+rng.Intn(12); h <= mints; h++ {
			mint := &Tx{CoinbaseHeight: uint64(h)}
			for i, outs := 0, 1+rng.Intn(4); i < outs; i++ {
				mint.Outs = append(mint.Outs, TxOut{Value: uint64(rng.Intn(4)) * 10, Owner: r.Addr(rng.Intn(2))})
			}
			set.applyTx(mint)
		}
		// Spend a few of the sender's coins so slots get swapped around.
		for _, op := range set.OutpointsOf(sender.Address()) {
			if rng.Intn(4) == 0 {
				id, _ := set.cat.lookup(op)
				set.remove(id)
			}
		}
		owned := set.OutpointsOf(sender.Address())
		var best Outpoint
		var bestValue, total uint64
		for _, op := range owned {
			out, _ := set.Get(op)
			total += out.Value
			if out.Value >= bestValue {
				best, bestValue = op, out.Value
			}
		}
		hidden := make(map[Outpoint]bool)
		for _, op := range owned {
			if rng.Intn(3) == 0 {
				hidden[op] = true
			}
		}
		avoids := []func(Outpoint) bool{
			nil,
			func(op Outpoint) bool { return hidden[op] },
			func(op Outpoint) bool { return op == best },
			func(Outpoint) bool { return true },
		}
		amounts := []uint64{0, 1, bestValue, bestValue + 1, total, total + 1, uint64(rng.Intn(int(total) + 2))}
		for _, avoid := range avoids {
			for _, amount := range amounts {
				for _, fee := range []uint64{0, 3} {
					want, wantErr := newPaymentBySort(set, avoid, sender, to, amount, fee)
					got, gotErr := NewPaymentAvoiding(set, avoid, sender, to, amount, fee)
					if (wantErr == nil) != (gotErr == nil) {
						t.Logf("seed %d amount %d fee %d: err %v, oracle %v", seed, amount, fee, gotErr, wantErr)
						return false
					}
					if wantErr != nil {
						if gotErr.Error() != wantErr.Error() || !errors.Is(gotErr, ErrInsufficient) {
							t.Logf("seed %d amount %d fee %d: err %q, oracle %q", seed, amount, fee, gotErr, wantErr)
							return false
						}
						continue
					}
					if got.ID() != want.ID() {
						t.Logf("seed %d amount %d fee %d: inputs %v, oracle %v", seed, amount, fee, got.Ins, want.Ins)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPaymentAvoiding(NewSet(), nil, sender, to, ^uint64(0), 1); !errors.Is(err, ErrValueOverflow) {
		t.Fatalf("amount+fee overflow: err = %v", err)
	}
}

var memoSink hashx.Hash

// The id and Merkle-root memos follow the repo's self-pointer rule: a
// repeat call is free, a struct copy re-hashes, and re-signing forgets.
func TestTxIDAndRootMemo(t *testing.T) {
	r := ring(2)
	tx := &Tx{
		Ins:  []TxIn{{Prev: Outpoint{TxID: hashx.Sum([]byte("prev")), Index: 0}}},
		Outs: []TxOut{{Value: 10, Owner: r.Addr(1)}},
	}
	tx.SignAll(r.Pair(0))
	id := tx.ID()
	if n := testing.AllocsPerRun(100, func() { memoSink = tx.ID() }); n != 0 {
		t.Fatalf("repeat ID() allocates %v times", n)
	}
	cp := *tx
	cp.Outs = []TxOut{{Value: 11, Owner: r.Addr(1)}}
	if cp.ID() == id {
		t.Fatal("a copied Tx answered from the original's memo")
	}
	tx.SignAll(r.Pair(1))
	resigned := tx.ID()
	if resigned == id {
		t.Fatal("SignAll after ID() left the old id in place")
	}
	if err := tx.Sign(0, r.Pair(0)); err != nil {
		t.Fatal(err)
	}
	if tx.ID() == resigned {
		t.Fatal("Sign after ID() left the old id in place")
	}

	body := &BlockBody{Txs: []*Tx{NewCoinbase(1, r.Addr(0), 50), tx}}
	root := body.Root()
	if n := testing.AllocsPerRun(100, func() { memoSink = body.Root() }); n != 0 {
		t.Fatalf("repeat Root() allocates %v times", n)
	}
	shorter := *body
	shorter.Txs = body.Txs[:1]
	if shorter.Root() == root {
		t.Fatal("a copied BlockBody answered from the original's memo")
	}
}

// A transaction whose content checked out at one set (txMemo) is still
// asked, at every other set, whether its inputs are unspent there.
func TestCheckTxMemoKeepsStateChecks(t *testing.T) {
	r := ring(2)
	fund := NewCoinbase(1, r.Addr(0), 100)
	holds, lacks := NewSet(), NewSet()
	holds.create(fund)
	pay := &Tx{Ins: []TxIn{{Prev: Outpoint{TxID: fund.ID(), Index: 0}}}, Outs: []TxOut{{Value: 90, Owner: r.Addr(1)}}}
	pay.SignAll(r.Pair(0))
	if fee, err := holds.CheckTx(pay); err != nil || fee != 10 {
		t.Fatalf("CheckTx = %d, %v", fee, err)
	}
	if _, err := lacks.CheckTx(pay); !errors.Is(err, ErrMissingOutput) {
		t.Fatalf("set that never saw the coin: err = %v", err)
	}
	if _, err := holds.applyTx(pay); err != nil {
		t.Fatal(err)
	}
	if _, err := holds.CheckTx(pay); !errors.Is(err, ErrMissingOutput) {
		t.Fatalf("set that spent the coin: err = %v", err)
	}
	lacks.create(fund)
	if fee, err := lacks.CheckTx(pay); err != nil || fee != 10 {
		t.Fatalf("after the coin arrived: CheckTx = %d, %v", fee, err)
	}
}

// Replica gives another node of the same network: genesis block and coin
// catalog shared, state its own — at genesis even when taken from a
// ledger that has moved on — and a ledger from NewLedger shares nothing.
func TestLedgerReplica(t *testing.T) {
	r := ring(4)
	l := newTestLedger(t, r, 2)
	early := l.Replica()
	if early.Genesis() != l.Genesis() || early.set.cat != l.set.cat {
		t.Fatal("replica does not share the genesis block and catalog")
	}
	if other := newTestLedger(t, r, 2); other.set.cat == l.set.cat {
		t.Fatal("two NewLedger calls share a catalog")
	}

	tx, err := NewPayment(l.UTXOSet(), r.Pair(0), r.Addr(2), 250, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	b := l.BuildBlock(r.Addr(3), time.Minute)
	if _, err := l.ProcessBlock(b); err != nil {
		t.Fatal(err)
	}
	// What l spent is untouched, and still spendable, at a replica.
	late := l.Replica()
	for name, rep := range map[string]*Ledger{"early": early, "late": late} {
		if rep.Height() != 0 || rep.PoolLen() != 0 || rep.Balance(r.Addr(0)) != 1000 || rep.Balance(r.Addr(2)) != 0 {
			t.Fatalf("%s replica is not at genesis: height %d, pool %d, balances %d/%d",
				name, rep.Height(), rep.PoolLen(), rep.Balance(r.Addr(0)), rep.Balance(r.Addr(2)))
		}
		if rep.UTXOSet().TotalValue() != 2000 || rep.UTXOSet().Len() != 2 {
			t.Fatalf("%s replica: supply %d in %d coins", name, rep.UTXOSet().TotalValue(), rep.UTXOSet().Len())
		}
		if err := rep.SubmitTx(tx); err != nil {
			t.Fatalf("%s replica refuses a coin another node spent: %v", name, err)
		}
		if res, err := rep.ProcessBlock(b); err != nil || res.Status != chain.Accepted {
			t.Fatalf("%s replica: ProcessBlock: %v %v", name, res.Status, err)
		}
		if rep.Store().Tip() != l.Store().Tip() || rep.Balance(r.Addr(2)) != 250 || rep.PoolLen() != 0 ||
			rep.UTXOSet().TotalValue() != l.UTXOSet().TotalValue() || rep.Confirmations(tx.ID()) != 1 {
			t.Fatalf("%s replica did not converge on the block", name)
		}
	}
	if l.Balance(r.Addr(0)) != 1000-255 {
		t.Fatalf("replicas' blocks moved the original: balance %d", l.Balance(r.Addr(0)))
	}
}

// The replicas of a network share the transaction table and the block
// catalog, but each validates the pointer it is handed. A same-id copy
// whose signature was changed after ID() is refused by a replica exactly
// as by a ledger on a catalog of its own, in the mempool and in a block;
// an honest same-id copy is pooled, mined and, after a reorg,
// disconnected and re-pooled as the pointer the replica validated, never
// as the catalog's.
func TestReplicaKeepsThePointerItValidated(t *testing.T) {
	r := ring(4)
	l := newTestLedger(t, r, 2)
	tx, err := NewPayment(l.UTXOSet(), r.Pair(0), r.Addr(2), 250, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	b := l.BuildBlock(r.Addr(3), time.Minute)
	if _, err := l.ProcessBlock(b); err != nil {
		t.Fatal(err)
	}

	// sameID copies tx; with forge, its signature changes after ID().
	sameID := func(forge bool) *Tx {
		cp := &Tx{Ins: slices.Clone(tx.Ins), Outs: tx.Outs}
		if cp.ID() != tx.ID() {
			t.Fatal("a copy changed the id")
		}
		if forge {
			cp.Ins[0].Sig = slices.Clone(cp.Ins[0].Sig)
			cp.Ins[0].Sig[3] ^= 0x40
		}
		return cp
	}
	// withTx is b under another pointer whose body carries pay in place
	// of tx: same header, same root.
	withTx := func(pay *Tx) *chain.Block {
		body := b.Payload.(*BlockBody)
		return &chain.Block{Header: b.Header, Payload: &BlockBody{Txs: []*Tx{body.Txs[0], pay}}}
	}

	forged := sameID(true)
	alone := newTestLedger(t, r, 2) // a catalog of its own: today's verdicts
	if got, want := fmt.Sprint(l.Replica().SubmitTx(forged)), fmt.Sprint(alone.SubmitTx(forged)); got != want || !strings.Contains(got, ErrBadSignature.Error()) {
		t.Fatalf("forged copy in the mempool: replica %s, own catalog %s", got, want)
	}
	forgedBlock := withTx(forged)
	rep := l.Replica()
	gotRes, gotErr := rep.ProcessBlock(forgedBlock)
	wantRes, wantErr := alone.ProcessBlock(forgedBlock)
	if gotRes.Status != wantRes.Status || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !errors.Is(gotErr, ErrBadSignature) {
		t.Fatalf("forged copy in a block: replica %v %v, own catalog %v %v", gotRes.Status, gotErr, wantRes.Status, wantErr)
	}
	if rep.Balance(r.Addr(2)) != 0 {
		t.Fatal("the replica applied the forged copy")
	}

	// An honest copy is the replica's own from submission to reinjection.
	honest := sameID(false)
	rep = l.Replica()
	if err := rep.SubmitTx(honest); err != nil {
		t.Fatal(err)
	}
	if mined := rep.BuildBlock(r.Addr(3), time.Minute).Payload.(*BlockBody).Txs; mined[1] != honest {
		t.Fatal("the replica mines the catalog's pointer, not the one it pooled")
	}
	copyBlock := withTx(honest)
	if res, err := rep.ProcessBlock(copyBlock); err != nil || res.Status != chain.Accepted {
		t.Fatalf("honest copy: %v %v", res.Status, err)
	}
	if got, _ := rep.Store().Get(b.Hash()); got != copyBlock {
		t.Fatal("the replica's store serves the catalog's block, not the one it validated")
	}
	if rep.Confirmations(tx.ID()) != 1 || l.Confirmations(tx.ID()) != 1 {
		t.Fatal("the payment is not confirmed at both ledgers")
	}
	// A heavier branch from genesis disconnects the copy: the payment
	// returns to the pool as the replica's pointer.
	heavy, err := rep.BuildBlockOn(rep.Genesis().Hash(), r.Addr(1), 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	heavy.Header.Difficulty = 10
	if res, err := rep.ProcessBlock(heavy); err != nil || res.Status != chain.AcceptedReorg {
		t.Fatalf("heavy branch: %v %v", res.Status, err)
	}
	if rep.Confirmations(tx.ID()) != 0 || !rep.Pool().Contains(tx.ID()) {
		t.Fatal("the reorg did not return the payment to the pool")
	}
	if txs, _ := rep.Pool().Assemble(1 << 20); len(txs) != 1 || txs[0] != honest {
		t.Fatal("the disconnected payment was re-pooled under the catalog's pointer")
	}
	if l.Confirmations(tx.ID()) != 1 {
		t.Fatal("the replica's reorg moved the original's confirmations")
	}
}

// Which blocks carry a transaction is catalog content, and a transaction
// a reorg disconnects can be carried again: confirmations are read from
// whichever carrier is on this ledger's main chain, and another ledger of
// the network on the abandoned branch still reads its own.
func TestConfirmationsFollowTheMainChainCarrier(t *testing.T) {
	r := ring(4)
	l := newTestLedger(t, r, 2)
	stay := l.Replica()
	tx, err := NewPayment(l.UTXOSet(), r.Pair(0), r.Addr(2), 250, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, led := range []*Ledger{l, stay} {
		if err := led.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	first := l.BuildBlock(r.Addr(3), time.Minute)
	for _, led := range []*Ledger{l, stay} {
		if _, err := led.ProcessBlock(first); err != nil {
			t.Fatal(err)
		}
	}
	// A heavier empty block on genesis abandons first; the payment goes
	// back to l's pool and into a second carrier on the new branch.
	heavy, err := l.BuildBlockOn(l.Genesis().Hash(), r.Addr(1), 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	heavy.Header.Difficulty = 10
	if res, err := l.ProcessBlock(heavy); err != nil || res.Status != chain.AcceptedReorg {
		t.Fatalf("heavy branch: %v %v", res.Status, err)
	}
	if l.Confirmations(tx.ID()) != 0 {
		t.Fatal("a payment on the abandoned branch still counts confirmations")
	}
	second := l.BuildBlock(r.Addr(3), 3*time.Minute)
	if second.TxCount() != 2 {
		t.Fatalf("the reinjected payment was not mined again: %d txs", second.TxCount())
	}
	if _, err := l.ProcessBlock(second); err != nil {
		t.Fatal(err)
	}
	if got := l.Confirmations(tx.ID()); got != 1 {
		t.Fatalf("confirmations through the second carrier = %d, want 1", got)
	}
	if got := stay.Confirmations(tx.ID()); got != 1 {
		t.Fatalf("a ledger still on the first carrier reads %d confirmations, want 1", got)
	}
}

// A rejected input names its outpoint with the text fmt.Errorf gave it,
// unwraps to ErrMissingOutput, and formats nothing until asked: a
// rejected mempool add costs at most the error value itself.
func TestMissingOutputErrorFormatsLazily(t *testing.T) {
	r := ring(2)
	fund := NewCoinbase(1, r.Addr(0), 100)
	holds, lacks := NewSet(), NewSet()
	holds.create(fund)
	op := Outpoint{TxID: fund.ID(), Index: 0}
	pay := &Tx{Ins: []TxIn{{Prev: op}}, Outs: []TxOut{{Value: 90, Owner: r.Addr(1)}}}
	pay.SignAll(r.Pair(0))
	dup := &Tx{Ins: []TxIn{{Prev: op}, {Prev: op}}, Outs: []TxOut{{Value: 1, Owner: r.Addr(1)}}}
	dup.SignAll(r.Pair(0))

	_, missing := lacks.CheckTx(pay)
	_, repeated := holds.CheckTx(dup)
	for _, tc := range []struct {
		err  error
		want string
	}{
		{missing, fmt.Errorf("%w: %s", ErrMissingOutput, op).Error()},
		{repeated, fmt.Errorf("%w: duplicate input %s", ErrMissingOutput, op).Error()},
	} {
		if !errors.Is(tc.err, ErrMissingOutput) {
			t.Fatalf("err = %v, not ErrMissingOutput", tc.err)
		}
		if tc.err.Error() != tc.want {
			t.Fatalf("err text %q, want %q", tc.err.Error(), tc.want)
		}
	}

	// Both validation paths: a transaction never checked anywhere, and
	// one whose content checked out at another set (its memo is valid).
	fresh := &Tx{Ins: []TxIn{{Prev: Outpoint{TxID: hashx.Sum([]byte("x")), Index: 0}}},
		Outs: []TxOut{{Value: 1, Owner: r.Addr(1)}}}
	fresh.SignAll(r.Pair(0))
	if _, err := holds.CheckTx(pay); err != nil {
		t.Fatal(err)
	}
	pool := NewMempool(lacks)
	for _, tx := range []*Tx{fresh, pay} {
		if n := testing.AllocsPerRun(100, func() {
			if pool.Add(tx) == nil {
				t.Fatal("unfunded transaction pooled")
			}
		}); n > 1 {
			t.Fatalf("rejected Mempool.Add allocates %v times, want <= 1", n)
		}
	}
}
