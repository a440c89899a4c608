package account

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chain"
	"repro/internal/keys"
)

func testParams() Params {
	p := DefaultParams()
	p.InitialGasLimit = 1_000_000
	p.TargetGasLimit = 1_000_000
	p.InitialDifficulty = 1
	return p
}

func newTestLedger(t *testing.T, r *keys.Ring, funded int, balance uint64) *Ledger {
	t.Helper()
	alloc := make(map[keys.Address]uint64, funded)
	for i := 0; i < funded; i++ {
		alloc[r.Addr(i)] = balance
	}
	l, err := NewLedger(alloc, testParams())
	if err != nil {
		t.Fatalf("NewLedger: %v", err)
	}
	return l
}

// payTx builds and signs a simple transfer.
func payTx(from *keys.KeyPair, nonce uint64, to keys.Address, value, gasPrice uint64) *Tx {
	tx := &Tx{Nonce: nonce, To: &to, Value: value, GasLimit: GasTxBase, GasPrice: gasPrice}
	tx.Sign(from)
	return tx
}

func TestStateAccountRoundTrip(t *testing.T) {
	s := NewState()
	addr := keys.Deterministic("a").Address()
	if got := s.GetAccount(addr); got.Nonce != 0 || got.Balance != 0 {
		t.Fatal("missing account should read zero")
	}
	s.SetAccount(addr, Account{Nonce: 3, Balance: 100, Code: []byte{OpStop}})
	got := s.GetAccount(addr)
	if got.Nonce != 3 || got.Balance != 100 || len(got.Code) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
	if !got.IsContract() {
		t.Fatal("account with code should be a contract")
	}
	// Zeroing deletes the entry and restores the empty root.
	empty := NewState()
	s2 := NewState()
	s2.SetAccount(addr, Account{Balance: 5})
	s2.SetAccount(addr, Account{})
	if s2.Root() != empty.Root() {
		t.Fatal("zero account should be deleted from the trie")
	}
}

func TestStateStorageRoundTrip(t *testing.T) {
	s := NewState()
	addr := keys.Deterministic("c").Address()
	s.SetStorage(addr, 1, 42)
	if s.GetStorage(addr, 1) != 42 {
		t.Fatal("storage round trip failed")
	}
	if s.GetStorage(addr, 2) != 0 {
		t.Fatal("unset slot should read 0")
	}
	root := s.Root()
	s.SetStorage(addr, 1, 0) // delete
	s.SetStorage(addr, 1, 42)
	if s.Root() != root {
		t.Fatal("delete+rewrite should restore the same root")
	}
}

func TestStateCopyIsolation(t *testing.T) {
	s := NewState()
	addr := keys.Deterministic("a").Address()
	s.AddBalance(addr, 10)
	snap := s.Copy()
	s.AddBalance(addr, 5)
	if snap.Balance(addr) != 10 {
		t.Fatal("copy must not observe later writes")
	}
	if s.Balance(addr) != 15 {
		t.Fatal("original lost a write")
	}
}

func TestContractAddressDeterministic(t *testing.T) {
	a := keys.Deterministic("a").Address()
	if ContractAddress(a, 0) != ContractAddress(a, 0) {
		t.Fatal("not deterministic")
	}
	if ContractAddress(a, 0) == ContractAddress(a, 1) {
		t.Fatal("nonce must vary the address")
	}
	b := keys.Deterministic("b").Address()
	if ContractAddress(a, 0) == ContractAddress(b, 0) {
		t.Fatal("sender must vary the address")
	}
}

func TestApplyTxTransfer(t *testing.T) {
	r := keys.NewRing("apply", 3)
	s := NewState()
	s.AddBalance(r.Addr(0), 1_000_000)
	coinbase := r.Addr(2)
	tx := payTx(r.Pair(0), 0, r.Addr(1), 500, 2)
	rec, err := ApplyTx(s, tx, coinbase)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != 1 || rec.GasUsed != GasTxBase {
		t.Fatalf("receipt = %+v", rec)
	}
	if s.Balance(r.Addr(1)) != 500 {
		t.Fatal("recipient not credited")
	}
	wantSender := 1_000_000 - 500 - GasTxBase*2
	if s.Balance(r.Addr(0)) != uint64(wantSender) {
		t.Fatalf("sender = %d, want %d", s.Balance(r.Addr(0)), wantSender)
	}
	if s.Balance(coinbase) != GasTxBase*2 {
		t.Fatalf("coinbase = %d", s.Balance(coinbase))
	}
	if s.Nonce(r.Addr(0)) != 1 {
		t.Fatal("nonce not bumped")
	}
}

func TestApplyTxValidationErrors(t *testing.T) {
	r := keys.NewRing("apply2", 3)
	s := NewState()
	s.AddBalance(r.Addr(0), 100_000)

	t.Run("bad nonce", func(t *testing.T) {
		tx := payTx(r.Pair(0), 5, r.Addr(1), 1, 1)
		if _, err := ApplyTx(s, tx, r.Addr(2)); !errors.Is(err, ErrBadNonce) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad signature", func(t *testing.T) {
		tx := payTx(r.Pair(0), 0, r.Addr(1), 1, 1)
		tx.Sig[0] ^= 0xFF
		if _, err := ApplyTx(s, tx, r.Addr(2)); !errors.Is(err, ErrBadSig) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("forged from", func(t *testing.T) {
		tx := payTx(r.Pair(0), 0, r.Addr(1), 1, 1)
		tx.From = r.Addr(1) // no longer matches pubkey
		if _, err := ApplyTx(s, tx, r.Addr(2)); !errors.Is(err, ErrBadSig) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("insufficient", func(t *testing.T) {
		tx := payTx(r.Pair(0), 0, r.Addr(1), 1_000_000_000, 1)
		if _, err := ApplyTx(s, tx, r.Addr(2)); !errors.Is(err, ErrInsufficient) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("gas below intrinsic", func(t *testing.T) {
		to := r.Addr(1)
		tx := &Tx{Nonce: 0, To: &to, Value: 1, GasLimit: 100, GasPrice: 1}
		tx.Sign(r.Pair(0))
		if _, err := ApplyTx(s, tx, r.Addr(2)); !errors.Is(err, ErrGasTooLow) {
			t.Fatalf("err = %v", err)
		}
	})
	// None of the failures may touch state.
	if s.Balance(r.Addr(0)) != 100_000 || s.Nonce(r.Addr(0)) != 0 {
		t.Fatal("failed txs must leave state untouched")
	}
}

func TestApplyTxContractLifecycle(t *testing.T) {
	r := keys.NewRing("contract", 3)
	s := NewState()
	s.AddBalance(r.Addr(0), 100_000_000)
	coinbase := r.Addr(2)

	// Deploy a counter: storage[0] += calldata word 0.
	code := Asm(
		OpPush, 0, // slot (for final SStore)
		OpPush, 0, OpSLoad, // current value
		OpPush, 0, OpCallData, // increment
		OpAdd,
		OpSStore,
		OpStop,
	)
	deploy := &Tx{Nonce: 0, To: nil, Data: code, GasLimit: 200_000, GasPrice: 1}
	deploy.Sign(r.Pair(0))
	rec, err := ApplyTx(s, deploy, coinbase)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != 1 || rec.Contract.IsZero() {
		t.Fatalf("deploy receipt = %+v", rec)
	}
	contractAddr := rec.Contract
	if !s.GetAccount(contractAddr).IsContract() {
		t.Fatal("contract code not stored")
	}
	wantGas := deploy.IntrinsicGas() + uint64(len(code))*GasCreateByte
	if rec.GasUsed != wantGas {
		t.Fatalf("deploy gas = %d, want %d", rec.GasUsed, wantGas)
	}

	// Call it with increment 7, twice.
	for i, want := range []uint64{7, 14} {
		call := &Tx{Nonce: uint64(1 + i), To: &contractAddr, Data: Asm(7), GasLimit: 100_000, GasPrice: 1}
		call.Sign(r.Pair(0))
		rec, err := ApplyTx(s, call, coinbase)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Status != 1 {
			t.Fatalf("call %d failed", i)
		}
		if got := s.GetStorage(contractAddr, 0); got != want {
			t.Fatalf("counter = %d, want %d", got, want)
		}
	}
}

func TestApplyTxRevertRollsBackButCharges(t *testing.T) {
	r := keys.NewRing("revert", 3)
	s := NewState()
	s.AddBalance(r.Addr(0), 10_000_000)
	coinbase := r.Addr(2)

	// Contract writes storage then reverts.
	code := Asm(OpPush, 1, OpPush, 99, OpSStore, OpRevert)
	deploy := &Tx{Nonce: 0, Data: code, GasLimit: 200_000, GasPrice: 1}
	deploy.Sign(r.Pair(0))
	rec, err := ApplyTx(s, deploy, coinbase)
	if err != nil {
		t.Fatal(err)
	}
	addr := rec.Contract

	call := &Tx{Nonce: 1, To: &addr, Value: 500, GasLimit: 100_000, GasPrice: 1}
	call.Sign(r.Pair(0))
	before := s.Balance(r.Addr(0))
	rec, err = ApplyTx(s, call, coinbase)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != 0 {
		t.Fatal("reverted call should report status 0")
	}
	if s.GetStorage(addr, 1) != 0 {
		t.Fatal("reverted SSTORE persisted")
	}
	if got := s.GetAccount(addr).Balance; got != 0 {
		t.Fatalf("reverted value transfer persisted: %d", got)
	}
	// Sender paid gas but kept the value; nonce advanced.
	paid := before - s.Balance(r.Addr(0))
	if paid != rec.GasUsed*1 {
		t.Fatalf("sender paid %d, want gas only %d", paid, rec.GasUsed)
	}
	if s.Nonce(r.Addr(0)) != 2 {
		t.Fatal("nonce must advance on reverted execution")
	}
}

func TestApplyTxOutOfGasConsumesLimit(t *testing.T) {
	r := keys.NewRing("oog", 3)
	s := NewState()
	s.AddBalance(r.Addr(0), 10_000_000)
	code := Asm(OpPush, 0, OpJump) // infinite loop
	deploy := &Tx{Nonce: 0, Data: code, GasLimit: 100_000, GasPrice: 1}
	deploy.Sign(r.Pair(0))
	rec, _ := ApplyTx(s, deploy, r.Addr(2))
	addr := rec.Contract

	call := &Tx{Nonce: 1, To: &addr, GasLimit: 50_000, GasPrice: 2}
	call.Sign(r.Pair(0))
	before := s.Balance(r.Addr(0))
	rec, err := ApplyTx(s, call, r.Addr(2))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != 0 || rec.GasUsed != 50_000 {
		t.Fatalf("OOG receipt = %+v", rec)
	}
	if before-s.Balance(r.Addr(0)) != 100_000 { // 50k gas at price 2
		t.Fatal("OOG must charge the full gas limit")
	}
}

// Property: ApplyTx conserves total balance (gas fees move, nothing mints).
func TestQuickSupplyConservation(t *testing.T) {
	r := keys.NewRing("supply", 6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewState()
		var supply uint64
		for i := 0; i < 4; i++ {
			s.AddBalance(r.Addr(i), 1_000_000)
			supply += 1_000_000
		}
		coinbase := r.Addr(5)
		for i := 0; i < 10; i++ {
			from := rng.Intn(4)
			to := r.Addr(rng.Intn(5))
			tx := payTx(r.Pair(from), s.Nonce(r.Addr(from)), to,
				uint64(rng.Intn(1000)), uint64(rng.Intn(3)))
			if _, err := ApplyTx(s, tx, coinbase); err != nil {
				continue // e.g. insufficient; state must be unchanged
			}
		}
		var total uint64
		for i := 0; i < 6; i++ {
			total += s.Balance(r.Addr(i))
		}
		return total == supply
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReceiptsRootSensitivity(t *testing.T) {
	r1 := &Receipt{Status: 1, GasUsed: 100}
	r2 := &Receipt{Status: 1, GasUsed: 200}
	a := ReceiptsRoot([]*Receipt{r1, r2})
	r2.Status = 0
	b := ReceiptsRoot([]*Receipt{r1, r2})
	if a == b {
		t.Fatal("receipt change did not change root")
	}
}

func TestMempoolNonceRuns(t *testing.T) {
	r := keys.NewRing("pool", 3)
	s := NewState()
	s.AddBalance(r.Addr(0), 100_000_000)
	s.AddBalance(r.Addr(1), 100_000_000)
	m := NewMempool()

	// Sender 0: nonces 0,1,2 at low gas price. Sender 1: nonce 0 high.
	for n := uint64(0); n < 3; n++ {
		if err := m.Add(payTx(r.Pair(0), n, r.Addr(2), 1, 1), s); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Add(payTx(r.Pair(1), 0, r.Addr(2), 1, 50), s); err != nil {
		t.Fatal(err)
	}
	cands := m.Candidates(s)
	if len(cands) != 4 {
		t.Fatalf("candidates = %d", len(cands))
	}
	if cands[0].From != r.Addr(1) {
		t.Fatal("highest gas price sender must come first")
	}
	// Sender 0's run must be nonce ordered.
	if cands[1].Nonce != 0 || cands[2].Nonce != 1 || cands[3].Nonce != 2 {
		t.Fatal("nonce run out of order")
	}
}

func TestMempoolGapsExcluded(t *testing.T) {
	r := keys.NewRing("gap", 2)
	s := NewState()
	s.AddBalance(r.Addr(0), 100_000_000)
	m := NewMempool()
	// Nonce 0 and 2 pooled; 2 is unexecutable until 1 arrives.
	m.Add(payTx(r.Pair(0), 0, r.Addr(1), 1, 1), s)
	m.Add(payTx(r.Pair(0), 2, r.Addr(1), 1, 1), s)
	if got := len(m.Candidates(s)); got != 1 {
		t.Fatalf("candidates with gap = %d, want 1", got)
	}
	m.Add(payTx(r.Pair(0), 1, r.Addr(1), 1, 1), s)
	if got := len(m.Candidates(s)); got != 3 {
		t.Fatalf("candidates after fill = %d, want 3", got)
	}
}

func TestMempoolReplacement(t *testing.T) {
	r := keys.NewRing("repl", 2)
	s := NewState()
	s.AddBalance(r.Addr(0), 100_000_000)
	m := NewMempool()
	low := payTx(r.Pair(0), 0, r.Addr(1), 1, 1)
	if err := m.Add(low, s); err != nil {
		t.Fatal(err)
	}
	same := payTx(r.Pair(0), 0, r.Addr(1), 2, 1)
	if err := m.Add(same, s); err == nil {
		t.Fatal("equal gas price replacement accepted")
	}
	high := payTx(r.Pair(0), 0, r.Addr(1), 2, 5)
	if err := m.Add(high, s); err != nil {
		t.Fatal(err)
	}
	if m.Contains(low.ID()) || !m.Contains(high.ID()) || m.Len() != 1 {
		t.Fatal("replacement bookkeeping wrong")
	}
}

func TestMempoolRejects(t *testing.T) {
	r := keys.NewRing("rej", 2)
	s := NewState()
	s.AddBalance(r.Addr(0), 100)
	m := NewMempool()
	// Past nonce.
	s.BumpNonce(r.Addr(0))
	if err := m.Add(payTx(r.Pair(0), 0, r.Addr(1), 1, 0), s); !errors.Is(err, ErrBadNonce) {
		t.Fatalf("err = %v", err)
	}
	// Unaffordable.
	if err := m.Add(payTx(r.Pair(0), 1, r.Addr(1), 1, 10), s); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v", err)
	}
}

func TestLedgerBuildAndProcess(t *testing.T) {
	r := keys.NewRing("ledger", 4)
	l := newTestLedger(t, r, 2, 10_000_000)
	proposer := r.Addr(3)

	tx := payTx(r.Pair(0), 0, r.Addr(2), 777, 1)
	if err := l.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	b := l.BuildBlock(proposer, 15*time.Second)
	if b.TxCount() != 1 {
		t.Fatalf("block tx count = %d", b.TxCount())
	}
	res, err := l.ProcessBlock(b)
	if err != nil || res.Status != chain.Accepted {
		t.Fatalf("ProcessBlock: %v %v", res.Status, err)
	}
	if l.Balance(r.Addr(2)) != 777 {
		t.Fatal("transfer not applied")
	}
	if l.Confirmations(tx.ID()) != 1 {
		t.Fatal("confirmation index wrong")
	}
	if l.Pool().Len() != 0 {
		t.Fatal("mined tx still pooled")
	}
	// A second node replays the block and reaches the same state root.
	alloc := map[keys.Address]uint64{r.Addr(0): 10_000_000, r.Addr(1): 10_000_000}
	replica, err := NewLedger(alloc, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if replica.Genesis().Hash() != l.Genesis().Hash() {
		t.Fatal("replicas disagree on genesis")
	}
	res, err = replica.ProcessBlock(b)
	if err != nil || res.Status != chain.Accepted {
		t.Fatalf("replica ProcessBlock: %v %v", res.Status, err)
	}
	if replica.State().Root() != l.State().Root() {
		t.Fatal("replica state root diverged")
	}
}

func TestLedgerRejectsTamperedBlocks(t *testing.T) {
	r := keys.NewRing("tamper", 3)
	l := newTestLedger(t, r, 1, 10_000_000)
	tx := payTx(r.Pair(0), 0, r.Addr(1), 100, 1)
	l.SubmitTx(tx)
	good := l.BuildBlock(r.Addr(2), 15*time.Second)

	t.Run("wrong state root", func(t *testing.T) {
		bad := *good
		bad.Header.StateRoot = hashHashOf("forged")
		if res, _ := l.ProcessBlock(&bad); res.Status != chain.Rejected {
			t.Fatalf("status = %v", res.Status)
		}
	})
	t.Run("tampered gas used", func(t *testing.T) {
		body := *good.Payload.(*BlockBody)
		body.GasUsed += 5
		bad := &chain.Block{Header: good.Header, Payload: &body}
		bad.Header.TxRoot = body.Root()
		if res, _ := l.ProcessBlock(bad); res.Status != chain.Rejected {
			t.Fatalf("status = %v", res.Status)
		}
	})
	t.Run("wrong gas limit", func(t *testing.T) {
		body := *good.Payload.(*BlockBody)
		body.GasLimit *= 2
		bad := &chain.Block{Header: good.Header, Payload: &body}
		bad.Header.TxRoot = body.Root()
		if res, _ := l.ProcessBlock(bad); res.Status != chain.Rejected {
			t.Fatalf("status = %v", res.Status)
		}
	})
	// The untampered block still applies.
	if res, err := l.ProcessBlock(good); err != nil || res.Status != chain.Accepted {
		t.Fatalf("good block rejected: %v %v", res.Status, err)
	}
}

// hashHashOf is a test helper for arbitrary roots.
func hashHashOf(s string) (h [32]byte) {
	copy(h[:], s)
	return h
}

func TestLedgerReorgSwitchesState(t *testing.T) {
	r := keys.NewRing("reorg", 4)
	l := newTestLedger(t, r, 2, 10_000_000)

	// Branch A: one block paying addr2.
	txA := payTx(r.Pair(0), 0, r.Addr(2), 111, 1)
	l.SubmitTx(txA)
	a1 := l.BuildBlock(r.Addr(3), 15*time.Second)
	if _, err := l.ProcessBlock(a1); err != nil {
		t.Fatal(err)
	}
	if l.Balance(r.Addr(2)) != 111 {
		t.Fatal("branch A not applied")
	}

	// Branch B (built on a replica): two heavier blocks paying addr2 more.
	alloc := map[keys.Address]uint64{r.Addr(0): 10_000_000, r.Addr(1): 10_000_000}
	replica, err := NewLedger(alloc, testParams())
	if err != nil {
		t.Fatal(err)
	}
	txB := payTx(r.Pair(0), 0, r.Addr(2), 222, 1)
	replica.SubmitTx(txB)
	b1 := replica.BuildBlock(r.Addr(3), 16*time.Second)
	if _, err := replica.ProcessBlock(b1); err != nil {
		t.Fatal(err)
	}
	b2 := replica.BuildBlock(r.Addr(3), 31*time.Second)
	if _, err := replica.ProcessBlock(b2); err != nil {
		t.Fatal(err)
	}

	if res, err := l.ProcessBlock(b1); err != nil || res.Status != chain.AcceptedSide {
		t.Fatalf("b1: %v %v", res.Status, err)
	}
	res, err := l.ProcessBlock(b2)
	if err != nil || res.Status != chain.AcceptedReorg {
		t.Fatalf("b2: %v %v", res.Status, err)
	}
	// State is now branch B's.
	if l.Balance(r.Addr(2)) != 222 {
		t.Fatalf("post-reorg balance = %d, want 222", l.Balance(r.Addr(2)))
	}
	if l.Confirmations(txA.ID()) != 0 {
		t.Fatal("orphaned tx still confirmed")
	}
	if l.Confirmations(txB.ID()) != 2 {
		t.Fatalf("adopted tx confirmations = %d, want 2", l.Confirmations(txB.ID()))
	}
}

func TestLedgerGasLimitDrift(t *testing.T) {
	p := testParams()
	p.InitialGasLimit = 1_000_000
	p.TargetGasLimit = 2_000_000
	r := keys.NewRing("drift", 2)
	l, err := NewLedger(map[keys.Address]uint64{r.Addr(0): 1000}, p)
	if err != nil {
		t.Fatal(err)
	}
	// Each block moves the limit at most parent/1024 toward the target.
	limit := p.InitialGasLimit
	for i := 0; i < 5; i++ {
		b := l.BuildBlock(r.Addr(1), time.Duration(i+1)*15*time.Second)
		body := b.Payload.(*BlockBody)
		wantMax := limit + limit/1024
		if body.GasLimit != wantMax {
			t.Fatalf("block %d gas limit = %d, want %d", i, body.GasLimit, wantMax)
		}
		limit = body.GasLimit
		if _, err := l.ProcessBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	// Overshoot clamps to target.
	if l.NextGasLimit(p.TargetGasLimit-1) != p.TargetGasLimit {
		t.Fatal("approach must clamp at target")
	}
	if l.NextGasLimit(p.TargetGasLimit+5) != p.TargetGasLimit {
		t.Fatal("descent must clamp at target")
	}
}

func TestLedgerGasCapsBlockContents(t *testing.T) {
	p := testParams()
	p.InitialGasLimit = GasTxBase * 3 // room for 3 plain transfers
	p.TargetGasLimit = p.InitialGasLimit
	r := keys.NewRing("cap", 3)
	l, err := NewLedger(map[keys.Address]uint64{r.Addr(0): 100_000_000}, p)
	if err != nil {
		t.Fatal(err)
	}
	for n := uint64(0); n < 10; n++ {
		if err := l.SubmitTx(payTx(r.Pair(0), n, r.Addr(1), 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	b := l.BuildBlock(r.Addr(2), 15*time.Second)
	if b.TxCount() != 3 {
		t.Fatalf("gas-capped block carries %d txs, want 3", b.TxCount())
	}
}

func TestLedgerStatePruning(t *testing.T) {
	r := keys.NewRing("prune", 3)
	l := newTestLedger(t, r, 1, 100_000_000)
	for i := 0; i < 10; i++ {
		l.SubmitTx(payTx(r.Pair(0), uint64(i), r.Addr(1), 10, 1))
		b := l.BuildBlock(r.Addr(2), time.Duration(i+1)*15*time.Second)
		if _, err := l.ProcessBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	archive := l.ArchiveBytes()
	tipOnly := l.StateBytes()
	if archive.Bytes <= tipOnly.Bytes {
		t.Fatal("archive must cost more than the tip state")
	}
	dropped := l.PruneStatesBelow(2)
	if dropped == 0 {
		t.Fatal("pruning dropped nothing")
	}
	// Tip state must survive pruning.
	if l.State().Balance(r.Addr(1)) != 100 {
		t.Fatal("tip state lost by pruning")
	}
	// Deep historical states are gone.
	old, _ := l.Store().HashAtHeight(1)
	if l.StateOf(old) != nil {
		t.Fatal("pruned state still accessible")
	}
	// Its delta went with it, and with no other ledger retaining the
	// state the execution table dropped the trie.
	if _, ok := l.DeltaOf(old); ok {
		t.Fatal("pruned delta still accessible")
	}
	id, _ := l.Store().IDOf(old)
	if e := l.exec.blocks[id]; e.refs != 0 || e.post != nil {
		t.Fatalf("pruned entry still held: %d retaining, trie kept %v", e.refs, e.post != nil)
	}
	// Delta accounting exists for recent blocks.
	if _, ok := l.DeltaOf(l.Store().Tip()); !ok {
		t.Fatal("missing delta for tip")
	}
}

func BenchmarkApplyTxTransfer(b *testing.B) {
	r := keys.NewRing("bench", 3)
	s := NewState()
	s.AddBalance(r.Addr(0), 1<<60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := payTx(r.Pair(0), uint64(i), r.Addr(1), 1, 1)
		if _, err := ApplyTx(s, tx, r.Addr(2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildBlock100Txs(b *testing.B) {
	r := keys.NewRing("bench2", 3)
	p := testParams()
	p.InitialGasLimit = 100 * GasTxBase
	p.TargetGasLimit = p.InitialGasLimit
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l, err := NewLedger(map[keys.Address]uint64{r.Addr(0): 1 << 60}, p)
		if err != nil {
			b.Fatal(err)
		}
		for n := uint64(0); n < 100; n++ {
			if err := l.SubmitTx(payTx(r.Pair(0), n, r.Addr(1), 1, 1)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		blk := l.BuildBlock(r.Addr(2), 15*time.Second)
		if blk.TxCount() != 100 {
			b.Fatalf("tx count %d", blk.TxCount())
		}
	}
}

// Regression: orphan-pool blocks cascaded in by a late ancestor must
// update the tx index and mempool just like in-order delivery (the
// store-level adoption used to be invisible to the ledger layer).
func TestProcessBlockOutOfOrderAdoption(t *testing.T) {
	r := keys.NewRing("ooo", 4)
	src := newTestLedger(t, r, 2, 1_000_000)
	dst := newTestLedger(t, r, 2, 1_000_000)

	tx := payTx(r.Pair(0), 0, r.Addr(3), 500, 2)
	if err := src.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if err := dst.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	proposer := r.Addr(2)
	var blocks []*chain.Block
	for i := 1; i <= 3; i++ {
		b := src.BuildBlock(proposer, time.Duration(i)*time.Second)
		if res, err := src.ProcessBlock(b); err != nil || res.Status != chain.Accepted {
			t.Fatalf("source block %d: %v %v", i, res.Status, err)
		}
		blocks = append(blocks, b)
	}
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
	if got := dst.Balance(r.Addr(3)); got != 500 {
		t.Fatalf("recipient balance after cascade = %d, want 500", got)
	}
	if dst.Pool().Contains(tx.ID()) {
		t.Fatal("confirmed tx still pooled after cascade adoption")
	}
}

// Replica gives another node of the same network: the genesis block, its
// state trie, the block catalog and the execution table shared, store,
// retained states and mempool its own, at genesis even when taken from a
// ledger that has moved on. Two
// replicas of one root then process diverging blocks, one of them through
// a reorg, and each ends where a ledger from NewLedger fed the same
// blocks does: same tip, state root, balances, confirmations and pool.
func TestLedgerReplica(t *testing.T) {
	r := keys.NewRing("replica", 4)
	root := newTestLedger(t, r, 2, 10_000_000)
	early := root.Replica()
	if early.Genesis() != root.Genesis() || early.genesisState != root.genesisState ||
		early.Store().Index() != root.Store().Index() {
		t.Fatal("replica does not share the genesis block, its state and the block catalog")
	}
	if other := newTestLedger(t, r, 2, 10_000_000); other.Store().Index() == root.Store().Index() {
		t.Fatal("two NewLedger calls share a block catalog")
	}

	// Branch A, built at the root: one block paying addr2.
	txA := payTx(r.Pair(0), 0, r.Addr(2), 111, 1)
	if err := root.SubmitTx(txA); err != nil {
		t.Fatal(err)
	}
	a1 := root.BuildBlock(r.Addr(3), 15*time.Second)
	if _, err := root.ProcessBlock(a1); err != nil {
		t.Fatal(err)
	}
	late := root.Replica()
	if late.Height() != 0 || late.PoolLen() != 0 || late.Balance(r.Addr(2)) != 0 ||
		late.State().Root() != root.Genesis().Header.StateRoot {
		t.Fatalf("late replica is not at genesis: height %d, pool %d, balance %d",
			late.Height(), late.PoolLen(), late.Balance(r.Addr(2)))
	}

	// Branch B, built at the late replica: two heavier blocks paying addr2
	// more, one of them from its own pool.
	txB := payTx(r.Pair(0), 0, r.Addr(2), 222, 1)
	if err := late.SubmitTx(txB); err != nil {
		t.Fatal(err)
	}
	b1 := late.BuildBlock(r.Addr(3), 16*time.Second)
	if _, err := late.ProcessBlock(b1); err != nil {
		t.Fatal(err)
	}
	b2 := late.BuildBlock(r.Addr(3), 31*time.Second)
	if _, err := late.ProcessBlock(b2); err != nil {
		t.Fatal(err)
	}

	// The early replica takes branch A, then reorgs onto branch B.
	if err := early.SubmitTx(txA); err != nil {
		t.Fatal(err)
	}
	feed := func(name string, l *Ledger, want []chain.AddStatus, blocks ...*chain.Block) {
		t.Helper()
		for i, b := range blocks {
			if res, err := l.ProcessBlock(b); err != nil || res.Status != want[i] {
				t.Fatalf("%s: block %d: %v %v, want %v", name, i, res.Status, err, want[i])
			}
		}
	}
	feed("early", early, []chain.AddStatus{chain.Accepted, chain.AcceptedSide, chain.AcceptedReorg}, a1, b1, b2)

	for _, c := range []struct {
		name   string
		l      *Ledger
		blocks []*chain.Block
		pooled []*Tx
	}{
		{"root", root, []*chain.Block{a1}, nil},
		{"early", early, []*chain.Block{a1, b1, b2}, []*Tx{txA}},
		{"late", late, []*chain.Block{b1, b2}, []*Tx{txB}},
	} {
		alloc := map[keys.Address]uint64{r.Addr(0): 10_000_000, r.Addr(1): 10_000_000}
		fresh, err := NewLedger(alloc, testParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range c.pooled {
			if err := fresh.SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range c.blocks {
			if _, err := fresh.ProcessBlock(b); err != nil {
				t.Fatalf("%s: fresh ledger: %v", c.name, err)
			}
		}
		if c.l.Store().Tip() != fresh.Store().Tip() || c.l.State().Root() != fresh.State().Root() {
			t.Fatalf("%s: tip or state root differs from a fresh ledger's", c.name)
		}
		for i := 0; i < 4; i++ {
			if got, want := c.l.Balance(r.Addr(i)), fresh.Balance(r.Addr(i)); got != want {
				t.Fatalf("%s: balance of %d = %d, fresh ledger %d", c.name, i, got, want)
			}
		}
		for _, tx := range []*Tx{txA, txB} {
			if got, want := c.l.Confirmations(tx.ID()), fresh.Confirmations(tx.ID()); got != want {
				t.Fatalf("%s: confirmations %d, fresh ledger %d", c.name, got, want)
			}
		}
		if c.l.PoolLen() != fresh.PoolLen() {
			t.Fatalf("%s: pool %d, fresh ledger %d", c.name, c.l.PoolLen(), fresh.PoolLen())
		}
	}
	if early.Balance(r.Addr(2)) != 222 || root.Balance(r.Addr(2)) != 111 {
		t.Fatalf("branches crossed: early %d, root %d", early.Balance(r.Addr(2)), root.Balance(r.Addr(2)))
	}
}
