package account

import (
	"crypto/ed25519"
	"testing"

	"repro/internal/keys"
	"repro/internal/keys/sigtest"
)

func TestTxSigMemoMatchesColdVerdict(t *testing.T) {
	to := keys.Deterministic("sigtest/payee").Address()
	sigtest.Run(t, sigtest.Harness[Tx]{
		New: func(t *testing.T, owner, signer *keys.KeyPair) *Tx {
			tx := payTx(signer, 3, to, 5, 1)
			tx.From = owner.Address() // Sign named the signer
			return tx
		},
		Resign: func(tx *Tx, kp *keys.KeyPair) { tx.Sign(kp) },
		Verify: func(tx *Tx) bool { return tx.VerifySig() },
		Cold: func(tx *Tx) bool {
			digest := tx.SigHash()
			return keys.AddressOf(tx.PubKey) == tx.From && keys.Verify(tx.PubKey, digest[:], tx.Sig)
		},
		Copy:          func(tx *Tx) *Tx { cp := *tx; return &cp },
		PubKey:        func(tx *Tx) *ed25519.PublicKey { return &tx.PubKey },
		Sig:           func(tx *Tx) *[]byte { return &tx.Sig },
		ChangeContent: func(tx *Tx) { tx.Value++ },
	})
}
