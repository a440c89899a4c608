// Package keys provides the ed25519 identities used by every participant in
// the simulated ledgers: miners, validators, account owners and Nano-style
// representatives. Identities can be generated randomly or derived
// deterministically from a seed so whole-network simulations are
// reproducible run to run.
//
// A signed object embeds a SigMemo, which holds the signature's verdict
// and how to make its bytes; the bytes appear on first read. Signing
// through KeyPair.SignMemo therefore runs no ed25519 until some code
// reads the signature, and an honest object its owner signed is
// accepted by every node without ever running it.
package keys

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"repro/internal/hashx"
	"repro/internal/par"
)

// AddressSize is the byte length of an Address.
const AddressSize = 20

// Address identifies an account: the first 20 bytes of the SHA-256 digest
// of the public key (the same construction Ethereum uses with Keccak).
type Address [AddressSize]byte

// ZeroAddress is the all-zero address. It marks burned funds and the
// "no recipient" case (contract creation).
var ZeroAddress Address

// String returns a short 8-hex-digit form, convenient for tables and logs.
func (a Address) String() string { return hex.EncodeToString(a[:4]) }

// Hex returns the full 40-character hex encoding.
func (a Address) Hex() string { return hex.EncodeToString(a[:]) }

// IsZero reports whether a is the zero address.
func (a Address) IsZero() bool { return a == ZeroAddress }

// Less orders addresses bytewise — the same order as comparing Hex()
// strings, without the per-comparison encoding. Sort comparators in the
// deterministic-ordering hot paths use this.
func (a Address) Less(b Address) bool {
	return bytes.Compare(a[:], b[:]) < 0
}

// Bytes returns the address as a fresh byte slice.
func (a Address) Bytes() []byte {
	out := make([]byte, AddressSize)
	copy(out, a[:])
	return out
}

// AddressFromBytes builds an Address from raw bytes.
func AddressFromBytes(raw []byte) (Address, error) {
	var a Address
	if len(raw) != AddressSize {
		return a, fmt.Errorf("keys: address must be %d bytes, got %d", AddressSize, len(raw))
	}
	copy(a[:], raw)
	return a, nil
}

// AddressOf derives the address of an ed25519 public key.
func AddressOf(pub ed25519.PublicKey) Address {
	digest := hashx.Sum(pub)
	var a Address
	copy(a[:], digest[:AddressSize])
	return a
}

// identity is the public half of a key pair: the key bytes and the
// address they hash to. It is written once, when the pair is derived.
type identity struct {
	pub  [ed25519.PublicKeySize]byte
	addr Address
}

// KeyPair is an ed25519 signing identity together with its derived address.
type KeyPair struct {
	Pub  ed25519.PublicKey
	priv ed25519.PrivateKey
	id   identity
}

// Deterministic derives a key pair from an arbitrary string seed. Equal
// seeds always produce equal key pairs, which keeps simulations
// reproducible without threading crypto/rand through the event loop.
func Deterministic(seed string) *KeyPair {
	digest := hashx.Sum([]byte("keyseed/" + seed))
	priv := ed25519.NewKeyFromSeed(digest[:])
	pub := priv.Public().(ed25519.PublicKey)
	kp := &KeyPair{Pub: pub, priv: priv, id: identity{addr: AddressOf(pub)}}
	copy(kp.id.pub[:], pub)
	return kp
}

// DeterministicN derives the i-th key pair of a named family, e.g. all
// simulated account owners of one experiment.
func DeterministicN(family string, i int) *KeyPair {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(i))
	return Deterministic(family + "/" + hex.EncodeToString(buf[:]))
}

// Address returns the key pair's derived address.
func (kp *KeyPair) Address() Address { return kp.id.addr }

// signs and verifies count the calls that reached ed25519.Sign and
// ed25519.Verify.
var signs, verifies atomic.Uint64

// Sign signs msg with the private key.
func (kp *KeyPair) Sign(msg []byte) []byte {
	signs.Add(1)
	return ed25519.Sign(kp.priv, msg)
}

// Signs returns how many times this process has run ed25519.Sign: a
// test takes the difference around a region, as with Verifies. Objects
// signed through SignMemo add to it only when their bytes are first read.
func Signs() uint64 { return signs.Load() }

// Verify reports whether sig is a valid signature of msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	verifies.Add(1)
	return ed25519.Verify(pub, msg, sig)
}

// Verifies returns how many times this process has run ed25519.Verify:
// the exact count of signature checks no memo answered. A test takes the
// difference around a region; an honest network whose objects were all
// signed by their owners' wallets adds nothing to it.
func Verifies() uint64 { return verifies.Load() }

// SigMemo lives inside a signed object (by value, as an unexported
// field) and holds two things about the object's signature: the verdict,
// and how to make the bytes. The bytes appear on first read, through
// Sig, and never before.
//
// How to make the bytes: SignMemo records the signing key pair and the
// content digest it was handed. The first Sig on an object that carries
// no bytes signs that frozen digest — never one re-derived from the
// content later, so content changed after signing fails — and gives the
// object its own copy of the result. ed25519 signing is deterministic,
// so these are the bytes an eager signature would have been.
//
// The verdict is "pub hashes to owner, and the bytes sign digest under
// pub". It is bound by SignMemo when the signer owns the object, or by
// Verify after a full check, and it is honoured only while the memo still
// lives at the address it was bound at: a simulated broadcast hands one
// pointer to every node, so one verdict serves them all, and a struct
// copy re-verifies. A hit compares the owner address, the content
// digest and the 32 key bytes with the bound ones, and then the bytes:
// an object not yet read must carry none, and once read its bytes must
// equal the memo's own copy — a separate array, so a byte flipped in
// place, a replaced slice, a swapped key, a changed owner or a changed
// digest all miss and verify in full. Only success is stored. The zero
// value is empty.
//
// Sig, Verify and SignMemo write and are not safe for concurrent
// use; Hit only reads. A type that recomputes its digest on every call
// (account.Tx, orv.Vote, pos.Vote) is covered field by field. A type
// that hands in a pointer-memoized content hash (lattice.Block,
// tangle.Vertex) inherits that hash's rule: content is not mutated in
// place after the first Hash().
//
// The key and its address are not copied — key points at the signing
// KeyPair's own immutable identity when SignMemo bound the verdict, so a
// wallet's many objects share one copy.
type SigMemo struct {
	self   *SigMemo
	key    *identity
	signer *KeyPair // non-nil until the bytes are made
	digest hashx.Hash
	sig    [ed25519.SignatureSize]byte
}

// Hit reports whether the memo holds a positive verdict for exactly
// these inputs. sig is the object's bytes as they stand, not read: a
// memo whose bytes are still to be made hits only an object carrying
// none.
func (m *SigMemo) Hit(owner Address, digest hashx.Hash, pub ed25519.PublicKey, sig []byte) bool {
	if m.self != m || m.key.addr != owner || m.digest != digest || !bytes.Equal(m.key.pub[:], pub) {
		return false
	}
	if m.signer != nil {
		return sig == nil
	}
	return bytes.Equal(m.sig[:], sig)
}

// Sig returns the object's signature field *sig, first making the
// bytes into it when it is nil and the memo has a signature to make.
func (m *SigMemo) Sig(sig *[]byte) []byte {
	if *sig == nil && m.signer != nil {
		*sig = m.signer.Sign(m.digest[:])
		copy(m.sig[:], *sig)
		m.signer = nil
	}
	return *sig
}

// store records a positive verdict Verify has established for these
// inputs: the key/owner binding and the signature both checked out. It
// allocates its copy of the key, which only an object that arrived
// without a binding pays, and binds the memo to its own address.
func (m *SigMemo) store(owner Address, digest hashx.Hash, pub ed25519.PublicKey, sig []byte) {
	key := &identity{addr: owner}
	copy(key.pub[:], pub)
	m.self, m.key, m.signer, m.digest = m, key, nil, digest
	copy(m.sig[:], sig)
}

// Verify reports whether pub hashes to owner and the bytes Sig(sig)
// returns are pub's signature of digest: from the memo when it holds
// that verdict, without reading the bytes, and in full (then storing a
// success) when it does not.
func (m *SigMemo) Verify(owner Address, digest hashx.Hash, pub ed25519.PublicKey, sig *[]byte) bool {
	if m.Hit(owner, digest, pub, *sig) {
		return true
	}
	s := m.Sig(sig)
	if AddressOf(pub) != owner || !Verify(pub, digest[:], s) {
		return false
	}
	m.store(owner, digest, pub, s)
	return true
}

// SignMemo makes m this key pair's signature of digest, replacing
// whatever m held; the bytes are made by the first m.Sig. When this key
// pair owns owner it also binds the verdict a verifier would reach:
// ed25519 signing is deterministic and complete, so a signature made
// with a key verifies under it. The binding names the public half of
// the private key, not the assignable Pub field, and is skipped when the
// signer is not the owner — the binding check a verifier makes — so an
// object that then carries another key, another owner or other bytes
// misses and is checked in full. The caller clears the object's
// signature field, or its old bytes stand.
func (kp *KeyPair) SignMemo(m *SigMemo, owner Address, digest hashx.Hash) {
	*m = SigMemo{signer: kp, digest: digest}
	if kp.id.addr == owner {
		m.self, m.key = m, &kp.id
	}
}

// VerifyJob is one signature check submitted to VerifyBatch.
type VerifyJob struct {
	Pub ed25519.PublicKey
	Msg []byte
	Sig []byte
}

// batchInlineLimit is the job count below which VerifyBatch verifies on
// the calling goroutine: pool startup costs more than it saves there.
const batchInlineLimit = 8

// VerifyBatch checks a batch of signatures across a bounded worker pool
// (workers <= 0 means one per CPU core) and returns one verdict per job
// in input order. Every job is independent, so the batch parallelizes
// perfectly. No ledger validates through it: objects verify one at a
// time through their SigMemo. The benchmark's keys replay row times it
// at one worker.
func VerifyBatch(jobs []VerifyJob, workers int) []bool {
	out := make([]bool, len(jobs))
	par.Each(len(jobs), workers, batchInlineLimit, func(i int) {
		j := jobs[i]
		out[i] = Verify(j.Pub, j.Msg, j.Sig)
	})
	return out
}

// Ring is a reusable set of deterministic identities indexed 0..n-1,
// with constant-time lookup by address. Simulations use one Ring per
// network so that "account #17" means the same key everywhere.
type Ring struct {
	pairs  []*KeyPair
	byAddr map[Address]int
}

// NewRing derives n identities for the named family.
func NewRing(family string, n int) *Ring {
	r := &Ring{
		pairs:  make([]*KeyPair, 0, n),
		byAddr: make(map[Address]int, n),
	}
	for i := 0; i < n; i++ {
		kp := DeterministicN(family, i)
		r.byAddr[kp.Address()] = i
		r.pairs = append(r.pairs, kp)
	}
	return r
}

// Len returns the number of identities in the ring.
func (r *Ring) Len() int { return len(r.pairs) }

// Pair returns the i-th identity.
func (r *Ring) Pair(i int) *KeyPair { return r.pairs[i] }

// Addr returns the i-th identity's address.
func (r *Ring) Addr(i int) Address { return r.pairs[i].Address() }

// Index returns the ring index of addr, or -1 if the address is not part
// of the ring.
func (r *Ring) Index(addr Address) int {
	if i, ok := r.byAddr[addr]; ok {
		return i
	}
	return -1
}

// Addresses returns all addresses in ring order as a fresh slice.
func (r *Ring) Addresses() []Address {
	out := make([]Address, len(r.pairs))
	for i, kp := range r.pairs {
		out[i] = kp.Address()
	}
	return out
}
