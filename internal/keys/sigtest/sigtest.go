// Package sigtest holds the one table every signed type is tested
// against: whatever is done to an object after it was signed or
// verified, the type's own verdict (through its keys.SigMemo) must equal
// the verdict of the key/owner binding check plus ed25519 on the bytes
// its signature accessor returns and the other fields as they stand.
// Each signed type supplies a Harness; Run drives it.
package sigtest

import (
	"crypto/ed25519"
	"testing"

	"repro/internal/keys"
)

// ContentMemo says when a type stops re-deriving its content digest.
type ContentMemo int

const (
	// Recomputed: the digest is derived from the fields on every check,
	// so a content field changed in place is caught.
	Recomputed ContentMemo = iota
	// FrozenBySigning: signing memoizes the content hash on the pointer
	// (lattice.Block, tangle.Vertex); content changes go on a copy.
	FrozenBySigning
	// FrozenByCheck: the first successful check memoizes it (utxo.Tx).
	FrozenByCheck
)

// Harness adapts one signed type T to the table.
type Harness[T any] struct {
	// New builds an object belonging to owner and signs it with signer
	// through the type's own signing path; for a Lazy type it reads no
	// signature.
	New func(t *testing.T, owner, signer *keys.KeyPair) *T
	// Resign signs obj again with kp, the way the type does it.
	Resign func(obj *T, kp *keys.KeyPair)
	// Verify is the type's verdict, memo included.
	Verify func(obj *T) bool
	// Cold is the verdict with no memo: the binding check and
	// keys.Verify on the bytes the type's accessor returns and obj's
	// other fields.
	Cold func(obj *T) bool
	// Copy returns a struct copy of obj, reading nothing.
	Copy func(obj *T) *T
	// PubKey and Sig point at the object's key and signature fields;
	// Sig reads the signature through the type's accessor first, so the
	// field holds the bytes it hands out.
	PubKey func(obj *T) *ed25519.PublicKey
	Sig    func(obj *T) *[]byte
	// ChangeContent alters a signed content field in place.
	ChangeContent func(obj *T)
	ContentMemo   ContentMemo
	// Lazy says the signing path makes no bytes until the signature is
	// first read; otherwise New has read it already.
	Lazy bool
}

// agree fails unless the type's verdict — asked twice, so that a memo
// wrongly written by the first answer shows in the second — equals the
// cold verdict, and equals want. The first verdict is asked before the
// cold check reads the signature, so it is the verdict on obj as it was
// handed in, read or not.
func (h Harness[T]) agree(t *testing.T, obj *T, want bool, what string) {
	t.Helper()
	first := h.Verify(obj)
	cold := h.Cold(obj)
	for i, got := range []bool{first, h.Verify(obj)} {
		if got != cold || got != want {
			t.Fatalf("%s, check %d: verdict %v, cold verdict %v, want %v", what, i+1, got, cold, want)
		}
	}
}

// Run checks the table on objects fresh from signing whose signature was
// read (memo seeded and the bytes made), on objects whose verdict came
// from a cold ed25519 check, and on objects fresh from signing that no
// code has read (deferred: for a lazy type, no bytes exist yet).
func Run[T any](t *testing.T, h Harness[T]) {
	owner, other := keys.Deterministic("sigtest/owner"), keys.Deterministic("sigtest/other")

	arms := []struct {
		name string
		make func(t *testing.T) *T
	}{
		{"seeded", func(t *testing.T) *T {
			obj := h.New(t, owner, owner)
			h.Sig(obj)
			return obj
		}},
		{"verified", func(t *testing.T) *T {
			obj := h.Copy(h.New(t, owner, owner)) // a copy carries no memo
			before := keys.Verifies()
			if !h.Verify(obj) || keys.Verifies() == before {
				t.Fatal("a copy of a signed object did not verify through ed25519")
			}
			return obj
		}},
		{"deferred", func(t *testing.T) *T {
			return h.New(t, owner, owner)
		}},
	}

	// Each case changes obj, made unread when unread is set, and says
	// whether it must verify afterwards.
	cases := []struct {
		name   string
		change func(t *testing.T, obj *T, unread bool) (tampered *T, want bool)
	}{
		{"untouched", func(t *testing.T, obj *T, _ bool) (*T, bool) { return obj, true }},
		{"flip a signature byte in place", func(t *testing.T, obj *T, _ bool) (*T, bool) {
			(*h.Sig(obj))[5] ^= 0x10
			return obj, false
		}},
		{"replace the signature slice", func(t *testing.T, obj *T, _ bool) (*T, bool) {
			sig := append([]byte(nil), *h.Sig(obj)...)
			sig[63] ^= 0x01
			*h.Sig(obj) = sig
			return obj, false
		}},
		{"truncate the signature", func(t *testing.T, obj *T, _ bool) (*T, bool) {
			*h.Sig(obj) = (*h.Sig(obj))[:ed25519.SignatureSize-1]
			return obj, false
		}},
		{"swap the public key", func(t *testing.T, obj *T, _ bool) (*T, bool) {
			*h.PubKey(obj) = other.Pub
			return obj, false
		}},
		{"change a content field", func(t *testing.T, obj *T, _ bool) (*T, bool) {
			h.ChangeContent(obj)
			return obj, false
		}},
		{"copy, then change a content field", func(t *testing.T, obj *T, _ bool) (*T, bool) {
			cp := h.Copy(obj)
			h.ChangeContent(cp)
			h.agree(t, obj, true, "the original")
			return cp, false
		}},
		{"copy, then flip a signature byte", func(t *testing.T, obj *T, unread bool) (*T, bool) {
			// A copy of a read object shares the signature's backing
			// array, so the original is tampered with too. A copy of an
			// unread one makes its own bytes on its first read, and the
			// original stays valid.
			cp := h.Copy(obj)
			(*h.Sig(cp))[0] ^= 0xFF
			h.agree(t, obj, unread, "the original")
			return cp, false
		}},
		{"copy, then replace the signature slice", func(t *testing.T, obj *T, _ bool) (*T, bool) {
			cp := h.Copy(obj)
			sig := append([]byte(nil), *h.Sig(cp)...)
			sig[0] ^= 0xFF
			*h.Sig(cp) = sig
			return cp, false
		}},
	}

	for _, arm := range arms {
		unread := arm.name == "deferred" && h.Lazy
		for _, c := range cases {
			if c.name == "change a content field" &&
				(h.ContentMemo == FrozenBySigning || h.ContentMemo == FrozenByCheck && arm.name == "verified") {
				continue // outside the type's contract; the copy case covers it
			}
			t.Run(arm.name+"/"+c.name, func(t *testing.T) {
				tampered, want := c.change(t, arm.make(t), unread)
				h.agree(t, tampered, want, "after the change")
			})
		}

		t.Run(arm.name+"/flip a signature byte and back", func(t *testing.T) {
			obj := arm.make(t)
			(*h.Sig(obj))[17] ^= 0x80
			h.agree(t, obj, false, "flipped")
			(*h.Sig(obj))[17] ^= 0x80
			h.agree(t, obj, true, "restored")
		})

		// Whether a second signature by another key is acceptable depends
		// on the type (account.Tx.Sign moves From along, the others keep
		// their owner), so only agreement with the cold verdict is asked.
		t.Run(arm.name+"/re-sign with another key", func(t *testing.T) {
			obj := arm.make(t)
			h.Resign(obj, other)
			h.agree(t, obj, h.Cold(obj), "re-signed by a stranger")
			h.Resign(obj, owner)
			h.agree(t, obj, true, "re-signed by the owner")
		})
	}

	t.Run("seeded object costs no ed25519 check", func(t *testing.T) {
		obj := h.New(t, owner, owner)
		h.Sig(obj)
		before := keys.Verifies()
		if !h.Verify(obj) || keys.Verifies() != before {
			t.Fatalf("verdict %v after %d ed25519 checks, want true after 0", h.Verify(obj), keys.Verifies()-before)
		}
	})
	if h.Lazy {
		t.Run("unread object costs no ed25519 call", func(t *testing.T) {
			signs, verifies := keys.Signs(), keys.Verifies()
			obj := h.New(t, owner, owner)
			ok := h.Verify(obj)
			if n, m := keys.Signs()-signs, keys.Verifies()-verifies; !ok || n != 0 || m != 0 {
				t.Fatalf("verdict %v after %d signatures and %d checks, want true after 0 and 0", ok, n, m)
			}
			h.Sig(obj)
			if n := keys.Signs() - signs; n != 1 {
				t.Fatalf("the first read made %d signatures, want 1", n)
			}
		})
	}
	t.Run("signed by a key that does not own the account", func(t *testing.T) {
		h.agree(t, h.New(t, owner, other), false, "stranger's signature")
	})
	t.Run("KeyPair.Pub overwritten before signing", func(t *testing.T) {
		// The object then carries other's key over owner's signature.
		fake := *owner
		fake.Pub = other.Pub
		h.agree(t, h.New(t, owner, &fake), false, "foreign Pub")
	})
}
