// Package keys provides the ed25519 identities used by every participant in
// the simulated ledgers: miners, validators, account owners and Nano-style
// representatives. Identities can be generated randomly or derived
// deterministically from a seed so whole-network simulations are
// reproducible run to run.
package keys

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
	"fmt"

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

// KeyPair is an ed25519 signing identity together with its derived address.
type KeyPair struct {
	Pub  ed25519.PublicKey
	priv ed25519.PrivateKey
	addr Address
}

// Deterministic derives a key pair from an arbitrary string seed. Equal
// seeds always produce equal key pairs, which keeps simulations
// reproducible without threading crypto/rand through the event loop.
func Deterministic(seed string) *KeyPair {
	digest := hashx.Sum([]byte("keyseed/" + seed))
	priv := ed25519.NewKeyFromSeed(digest[:])
	pub := priv.Public().(ed25519.PublicKey)
	return &KeyPair{Pub: pub, priv: priv, addr: AddressOf(pub)}
}

// DeterministicN derives the i-th key pair of a named family, e.g. all
// simulated account owners of one experiment.
func DeterministicN(family string, i int) *KeyPair {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(i))
	return Deterministic(family + "/" + hex.EncodeToString(buf[:]))
}

// Address returns the key pair's derived address.
func (kp *KeyPair) Address() Address { return kp.addr }

// Sign signs msg with the private key.
func (kp *KeyPair) Sign(msg []byte) []byte { return ed25519.Sign(kp.priv, msg) }

// Verify reports whether sig is a valid signature of msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// VerifyMemo caches a positive signature verdict inside the signed object
// it is embedded in (by value, as an unexported field): the content
// digest that carried a valid signature, honoured only while the memo
// still lives at the address it was stored from. A simulated broadcast
// hands one pointer to every node, so one ed25519 check serves them all;
// a struct copy moves the memo to a new address and re-verifies, and
// content mutated after a successful check re-verifies because the
// caller re-derives the digest on every call. Only success is stored —
// a failing check is repeated each time. The zero value is empty. Not
// safe for concurrent use.
type VerifyMemo struct {
	self   *VerifyMemo
	digest hashx.Hash
}

// Hit reports whether digest is the one a valid signature was stored for.
func (m *VerifyMemo) Hit(digest hashx.Hash) bool {
	return m.self == m && m.digest == digest
}

// Store records that digest carried a valid signature.
func (m *VerifyMemo) Store(digest hashx.Hash) {
	m.self = m
	m.digest = digest
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
// in input order. Signature verification is the dominant cost of ledger
// validation, and every job is independent, so the batch parallelizes
// perfectly — this is the primitive behind lattice.ProcessBatch and the
// netsim validation hot paths.
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
