package lattice

import (
	"crypto/ed25519"
	"testing"

	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/keys/sigtest"
)

func TestBlockSigMemoMatchesColdVerdict(t *testing.T) {
	sigtest.Run(t, sigtest.Harness[Block]{
		New: func(t *testing.T, owner, signer *keys.KeyPair) *Block {
			b := &Block{Type: Send, Account: owner.Address(), Prev: hashx.Sum([]byte("sigtest/prev")), Balance: 10}
			b.sign(signer)
			return b
		},
		Resign: func(b *Block, kp *keys.KeyPair) { b.sign(kp) },
		Verify: func(b *Block) bool { return b.VerifySig() },
		Cold: func(b *Block) bool {
			digest := hashx.Sum(b.contentBytes())
			return keys.AddressOf(b.PubKey) == b.Account && keys.Verify(b.PubKey, digest[:], b.Sig())
		},
		Copy:          func(b *Block) *Block { cp := *b; return &cp },
		PubKey:        func(b *Block) *ed25519.PublicKey { return &b.PubKey },
		Sig:           func(b *Block) *[]byte { b.Sig(); return &b.sig },
		ChangeContent: func(b *Block) { b.Balance-- },
		ContentMemo:   sigtest.FrozenBySigning,
		Lazy:          true,
	})
}

// The account is under the signature memo as well as under the (pointer
// memoized) hash: a block re-addressed in place after acceptance is
// rejected even though Hash() still answers from its memo.
func TestBlockVerifySigSeesAccountChangedInPlace(t *testing.T) {
	ring := keys.NewRing("sigmemo-account", 2)
	b := &Block{Type: Send, Account: ring.Addr(0), Balance: 10}
	b.sign(ring.Pair(0))
	if !b.VerifySig() {
		t.Fatal("signed block rejected")
	}
	b.Account = ring.Addr(1)
	if b.VerifySig() {
		t.Fatal("block accepted for an account its key does not own")
	}
}
