package orv

import (
	"crypto/ed25519"
	"testing"

	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/keys/sigtest"
)

func TestVoteSigMemoMatchesColdVerdict(t *testing.T) {
	block := hashx.Sum([]byte("sigtest/block"))
	sigtest.Run(t, sigtest.Harness[Vote]{
		New: func(t *testing.T, owner, signer *keys.KeyPair) *Vote {
			v := NewVote(signer, block, 1)
			if owner != signer {
				// A vote in owner's name: NewVote named the signer, so
				// sign the digest that names owner instead.
				v.Rep = owner.Address()
				digest := voteDigest(v)
				v.sig = signer.Sign(digest[:])
			}
			return v
		},
		// A vote has no re-sign method: a second signature is written
		// into the fields.
		Resign: func(v *Vote, kp *keys.KeyPair) {
			digest := voteDigest(v)
			v.PubKey, v.sig = kp.Pub, kp.Sign(digest[:])
		},
		Verify: func(v *Vote) bool { return v.Verify() },
		Cold: func(v *Vote) bool {
			digest := voteDigest(v)
			return keys.AddressOf(v.PubKey) == v.Rep && keys.Verify(v.PubKey, digest[:], v.Sig())
		},
		Copy:          func(v *Vote) *Vote { cp := *v; return &cp },
		PubKey:        func(v *Vote) *ed25519.PublicKey { return &v.PubKey },
		Sig:           func(v *Vote) *[]byte { v.Sig(); return &v.sig },
		ChangeContent: func(v *Vote) { v.Seq++ },
		Lazy:          true,
	})
}
