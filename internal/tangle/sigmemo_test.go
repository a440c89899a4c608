package tangle

import (
	"crypto/ed25519"
	"testing"

	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/keys/sigtest"
)

func TestVertexSigMemoMatchesColdVerdict(t *testing.T) {
	parent := hashx.Sum([]byte("sigtest/parent"))
	sigtest.Run(t, sigtest.Harness[Vertex]{
		New: func(t *testing.T, owner, signer *keys.KeyPair) *Vertex {
			v := &Vertex{Issuer: owner.Address(), Seq: 1, ParentA: parent, ParentB: parent,
				From: owner.Address(), To: signer.Address(), Amount: 5}
			v.sign(signer)
			return v
		},
		Resign: func(v *Vertex, kp *keys.KeyPair) { v.sign(kp) },
		Verify: func(v *Vertex) bool { return v.VerifySig() },
		Cold: func(v *Vertex) bool {
			digest := hashx.Sum(v.contentBytes())
			return keys.AddressOf(v.PubKey) == v.Issuer && keys.Verify(v.PubKey, digest[:], v.Sig())
		},
		Copy:          func(v *Vertex) *Vertex { cp := *v; return &cp },
		PubKey:        func(v *Vertex) *ed25519.PublicKey { return &v.PubKey },
		Sig:           func(v *Vertex) *[]byte { v.Sig(); return &v.sig },
		ChangeContent: func(v *Vertex) { v.Amount++ },
		ContentMemo:   sigtest.FrozenBySigning,
		Lazy:          true,
	})
}
