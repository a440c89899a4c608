package account

import (
	"errors"
	"testing"

	"repro/internal/keys"
)

// memoHit reports whether tx's memo vouches for tx as it stands.
func memoHit(tx *Tx) bool {
	return tx.verified.Hit(tx.From, tx.SigHash(), tx.PubKey, tx.Sig)
}

// The second check of one pointer is a memo hit: it pays the SigHash on
// the stack and nothing else, where a cold ed25519 check allocates.
func TestVerifySigRepeatIsAllocFree(t *testing.T) {
	r := keys.NewRing("memo-alloc", 2)
	tx := payTx(r.Pair(0), 0, r.Addr(1), 5, 1)
	if !tx.VerifySig() {
		t.Fatal("valid signature rejected")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if !tx.VerifySig() {
			t.Fatal("repeat check failed")
		}
	}); allocs != 0 {
		t.Fatalf("repeat VerifySig allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		cold := *tx
		if !cold.VerifySig() {
			t.Fatal("copy check failed")
		}
	}); allocs == 0 {
		t.Fatal("a cold check did not allocate: the alloc count no longer tells a memo hit from ed25519")
	}
}

// The memo lives at the address it was stored from: a copied Tx carries
// the bytes but misses, verifies in full, and then owns its own memo.
func TestVerifySigCopyReverifies(t *testing.T) {
	r := keys.NewRing("memo-copy", 2)
	tx := payTx(r.Pair(0), 0, r.Addr(1), 5, 1)
	if !tx.VerifySig() || !memoHit(tx) {
		t.Fatal("successful check was not memoized")
	}
	cp := *tx
	if memoHit(&cp) {
		t.Fatal("a struct copy rides the original's memo")
	}
	if !cp.VerifySig() || !memoHit(&cp) {
		t.Fatal("copy did not verify and memoize on its own")
	}
	// A copy tampered with after the original verified must not pass.
	forged := *tx
	forged.Value++
	if forged.VerifySig() {
		t.Fatal("tampered copy verified")
	}
}

// Whatever changes after a successful check — signature, signed payload
// or claimed sender — is compared by the memo, so it misses and every
// caller sees the real verdict.
func TestVerifySigMutationAfterSuccess(t *testing.T) {
	r := keys.NewRing("memo-mutate", 3)
	mutations := []struct {
		name   string
		mutate func(*Tx)
	}{
		{"flip sig byte", func(tx *Tx) { tx.Sig[7] ^= 0x01 }},
		{"change value", func(tx *Tx) { tx.Value++ }},
		{"swap from", func(tx *Tx) { tx.From = r.Addr(1) }},
		{"swap pubkey", func(tx *Tx) { tx.PubKey = r.Pair(1).Pub }},
		{"truncate sig", func(tx *Tx) { tx.Sig = tx.Sig[:len(tx.Sig)-1] }},
		// Same Data|PubKey|Sig byte stream, different fields.
		{"move a key byte into data", func(tx *Tx) {
			tx.Data = append(tx.Data, tx.PubKey[0])
			tx.PubKey = tx.PubKey[1:]
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			s := NewState()
			s.AddBalance(r.Addr(0), 1_000_000)
			s.AddBalance(r.Addr(1), 1_000_000)
			tx := payTx(r.Pair(0), 0, r.Addr(2), 5, 1)
			if !tx.VerifySig() {
				t.Fatal("valid signature rejected")
			}
			m.mutate(tx)
			if tx.VerifySig() {
				t.Fatal("mutated transaction rode the memo")
			}
			if _, err := ApplyTx(s, tx, r.Addr(2)); !errors.Is(err, ErrBadSig) {
				t.Fatalf("ApplyTx err = %v, want ErrBadSig", err)
			}
			if err := NewMempool().Add(tx, s); !errors.Is(err, ErrBadSig) {
				t.Fatalf("Mempool.Add err = %v, want ErrBadSig", err)
			}
		})
	}
}

// Only success is stored: a failing transaction is checked in full every
// time, and passes as soon as its content is valid again.
func TestVerifySigFailureNotCached(t *testing.T) {
	r := keys.NewRing("memo-fail", 2)
	tx := payTx(r.Pair(0), 0, r.Addr(1), 5, 1)
	tx.Sig[0] ^= 0xFF
	for i := 0; i < 2; i++ {
		if tx.VerifySig() {
			t.Fatal("bad signature accepted")
		}
		if memoHit(tx) {
			t.Fatal("failed check left a memo")
		}
	}
	tx.Sig[0] ^= 0xFF
	if !tx.VerifySig() {
		t.Fatal("restored signature rejected: a failure was cached")
	}
}

// Re-signing replaces From, PubKey and Sig, so the old memo cannot
// vouch for the new signature.
func TestVerifySigResignReverifies(t *testing.T) {
	r := keys.NewRing("memo-resign", 3)
	tx := payTx(r.Pair(0), 0, r.Addr(2), 5, 1)
	if !tx.VerifySig() {
		t.Fatal("valid signature rejected")
	}
	old := *tx
	tx.Sign(r.Pair(1))
	if tx.verified.Hit(old.From, old.SigHash(), old.PubKey, old.Sig) {
		t.Fatal("memo still vouches for the old signature after a re-sign")
	}
	if !tx.VerifySig() || tx.From != r.Addr(1) {
		t.Fatal("re-signed transaction rejected")
	}
	// The new key's signature under the old sender is a forgery.
	tx.From = r.Addr(0)
	if tx.VerifySig() {
		t.Fatal("signature by key 1 accepted for sender 0")
	}
}
