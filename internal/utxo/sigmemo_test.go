package utxo

import (
	"crypto/ed25519"
	"testing"

	"repro/internal/keys"
	"repro/internal/keys/sigtest"
)

// CheckTx on a set holding one coin of the owner's: the only way the
// transaction can fail is its input's key or signature.
func TestCheckTxSigMemoMatchesColdVerdict(t *testing.T) {
	payee := keys.Deterministic("sigtest/payee").Address()
	var set *Set
	var fund *Tx
	sigtest.Run(t, sigtest.Harness[Tx]{
		New: func(t *testing.T, owner, signer *keys.KeyPair) *Tx {
			set = NewSet()
			fund = NewCoinbase(1, owner.Address(), 100)
			if _, err := set.applyTx(fund); err != nil {
				t.Fatal(err)
			}
			tx := &Tx{Ins: []TxIn{{Prev: Outpoint{TxID: fund.ID()}}}, Outs: []TxOut{{Value: 60, Owner: payee}}}
			tx.SignAll(signer)
			return tx
		},
		Resign: func(tx *Tx, kp *keys.KeyPair) { tx.SignAll(kp) },
		Verify: func(tx *Tx) bool {
			_, err := set.CheckTx(tx)
			return err == nil
		},
		Cold: func(tx *Tx) bool {
			digest := tx.SigHash()
			in := tx.Ins[0]
			return keys.AddressOf(in.PubKey) == fund.Outs[0].Owner && keys.Verify(in.PubKey, digest[:], in.Sig)
		},
		// The copy shares Ins, as a struct copy does.
		Copy:   func(tx *Tx) *Tx { cp := *tx; return &cp },
		PubKey: func(tx *Tx) *ed25519.PublicKey { return &tx.Ins[0].PubKey },
		Sig:    func(tx *Tx) *[]byte { return &tx.Ins[0].Sig },
		// Outs is replaced, not written through: a copy shares its array.
		ChangeContent: func(tx *Tx) { tx.Outs = []TxOut{{Value: tx.Outs[0].Value - 1, Owner: payee}} },
		ContentMemo:   sigtest.FrozenByCheck,
	})
}
