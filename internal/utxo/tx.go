// Package utxo implements a Bitcoin-style ledger (paper §II-A, reference
// implementation #1): transactions spend unspent transaction outputs,
// blocks bundle transactions under a Merkle root, miners collect fees plus
// a halving block subsidy, and the mempool holds the pending-transaction
// backlog that §VI quotes at 186,951 for Bitcoin. Block bodies satisfy
// chain.Payload, so the generic fork-choice/reorg machinery of
// internal/chain drives the ledger's view of history.
//
// Content is separate from state (see internal/catalog). What every node
// of a network agrees on is held once per network: the genesis block, the
// block catalog under the chain stores, and one catalog of transactions
// beside a column of coins — each transaction's pointer, fee, size and
// fee rate, the coins it created, the coins it spends and the blocks that
// carry it. A node (NewLedger, or Replica of another ledger) holds only
// bits over those tables: which blocks it attached and which form its
// main chain (chain.Store), which coins are unspent (Set), which
// transactions are pooled and which coins they claim, in arrival order
// (Mempool). A transaction's confirmations are a query, not an index: the
// carrier on this node's main chain.
//
// Content is immutable once a network has seen it (Tx and BlockBody
// memoize their id and root on the pointer). A node handed another
// pointer under a known id or hash validates that pointer and keeps it as
// its own (catalog.Own), so what it mines, serves and disconnects is what
// it checked.
package utxo

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/merkle"
)

// Modeled wire sizes in bytes, calibrated to Bitcoin's typical encoding so
// the ledger-size experiments of §V produce realistic byte counts.
const (
	outpointWireSize = hashx.Size + 4
	txOutWireSize    = 8 + keys.AddressSize
	txInWireSize     = outpointWireSize + ed25519.SignatureSize + ed25519.PublicKeySize
	txOverheadSize   = 10
)

// Outpoint references one output of a prior transaction.
type Outpoint struct {
	TxID  hashx.Hash
	Index uint32
}

// String renders the outpoint for logs.
func (o Outpoint) String() string { return fmt.Sprintf("%s:%d", o.TxID, o.Index) }

// TxOut is a spendable output: an amount locked to an address.
type TxOut struct {
	Value uint64
	Owner keys.Address
}

// TxIn spends a prior output by proving ownership with an ed25519
// signature over the transaction's SigHash.
type TxIn struct {
	Prev   Outpoint
	PubKey ed25519.PublicKey
	Sig    []byte
}

// Tx is a transfer of value from its inputs to its outputs. A coinbase
// transaction has no inputs; CoinbaseHeight makes each one unique, the
// role Bitcoin gives the height it requires in the coinbase script.
//
// A Tx is immutable after its first ID(): the id and the verdict of
// CheckTx's content checks are memoized on the pointer every replica of a
// network shares. Sign and SignAll reset the memo; any other change after
// ID() must be made on a copy. Signatures are the exception: every check
// compares each input's PubKey and Sig with what was verified, so a
// signature changed after acceptance is rejected.
type Tx struct {
	Ins            []TxIn
	Outs           []TxOut
	CoinbaseHeight uint64

	memo txMemo
}

// txMemo caches pure functions of the transaction's content. It is valid
// only while self still points at the Tx that holds it, so a copied Tx
// recomputes. valid records that every check of CheckTx that reads only
// the catalog and the transaction's outpoints and outputs has passed: no
// input is repeated and the inputs are worth at least the outputs, by
// fee; sigHash is the digest the inputs signed then. That holds at every
// ledger the same pointer is submitted to; only success is cached — a
// failing transaction is re-checked in full on every call. What depends
// on a ledger's state (the inputs exist there, unspent) is never cached.
//
// sig holds the verdict on one (owner, key, signature): SignAll binds it,
// and every input signed by that key hits it at every check. A
// transaction whose inputs carry different keys is sound but slow — each
// input that is not the one last stored verifies in full.
type txMemo struct {
	self    *Tx
	hasID   bool
	valid   bool
	id      hashx.Hash
	fee     uint64
	sigHash hashx.Hash
	sig     keys.SigMemo
}

// checkSig reports whether input i's key hashes to owner, the owner of
// the coin it spends, and its signature covers digest.
func (m *txMemo) checkSig(i int, in TxIn, owner keys.Address, digest hashx.Hash) error {
	if m.sig.Verify(owner, digest, in.PubKey, &in.Sig) {
		return nil
	}
	if keys.AddressOf(in.PubKey) != owner {
		return fmt.Errorf("%w: input %d", ErrWrongOwner, i)
	}
	return fmt.Errorf("%w: input %d", ErrBadSignature, i)
}

// memoized returns tx's memo, emptied first if it was copied in from
// another Tx value.
func (tx *Tx) memoized() *txMemo {
	if tx.memo.self != tx {
		tx.memo = txMemo{self: tx}
	}
	return &tx.memo
}

// IsCoinbase reports whether the transaction mints the block reward.
func (tx *Tx) IsCoinbase() bool { return len(tx.Ins) == 0 }

// EncodedSize returns the modeled wire size.
func (tx *Tx) EncodedSize() int {
	return txOverheadSize + len(tx.Ins)*txInWireSize + len(tx.Outs)*txOutWireSize
}

// sigBytes serializes the signature-covered portion: every input's
// outpoint, every output, and the coinbase height. Typical payments (a
// few ins/outs) serialize into the caller's stack scratch via SigHash
// and ID; larger transactions spill to the heap on append.
func (tx *Tx) appendSigBytes(buf []byte) []byte {
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], tx.CoinbaseHeight)
	buf = append(buf, scratch[:]...)
	for _, in := range tx.Ins {
		buf = append(buf, in.Prev.TxID[:]...)
		binary.BigEndian.PutUint32(scratch[:4], in.Prev.Index)
		buf = append(buf, scratch[:4]...)
	}
	for _, out := range tx.Outs {
		binary.BigEndian.PutUint64(scratch[:], out.Value)
		buf = append(buf, scratch[:]...)
		buf = append(buf, out.Owner[:]...)
	}
	return buf
}

// sigScratch fits the signed portion of a several-input payment on the
// caller's stack.
type sigScratch [512]byte

// SigHash is the digest each input signs.
func (tx *Tx) SigHash() hashx.Hash {
	var sb sigScratch
	return hashx.Sum(tx.appendSigBytes(sb[:0]))
}

// ID returns the transaction identifier, covering signatures as well,
// memoized on first use: every replica's mempool, block connect and
// Merkle root asks for it.
func (tx *Tx) ID() hashx.Hash {
	m := tx.memoized()
	if !m.hasID {
		var sb sigScratch
		buf := tx.appendSigBytes(sb[:0])
		for _, in := range tx.Ins {
			buf = append(buf, in.PubKey...)
			buf = append(buf, in.Sig...)
		}
		m.id = hashx.SumDouble(buf)
		m.hasID = true
	}
	return m.id
}

// Sign fills in the i-th input's public key and signature.
func (tx *Tx) Sign(i int, kp *keys.KeyPair) error {
	if i < 0 || i >= len(tx.Ins) {
		return fmt.Errorf("utxo: sign: input %d out of range", i)
	}
	digest := tx.SigHash()
	tx.Ins[i].PubKey = kp.Pub
	tx.Ins[i].Sig = kp.Sign(digest[:])
	tx.memo = txMemo{}
	return nil
}

// SignAll signs every input with the same key, and binds the memo to
// that signature's verdict for the coins the key owns. The ID covers the
// signature, so the bytes are made at once.
func (tx *Tx) SignAll(kp *keys.KeyPair) {
	tx.memo = txMemo{self: tx}
	kp.SignMemo(&tx.memo.sig, kp.Address(), tx.SigHash())
	var sig []byte
	tx.memo.sig.Sig(&sig)
	for i := range tx.Ins {
		tx.Ins[i].PubKey = kp.Pub
		tx.Ins[i].Sig = sig
	}
}

// NewCoinbase builds the reward transaction for a block at the given
// height paying value to the miner.
func NewCoinbase(height uint64, miner keys.Address, value uint64) *Tx {
	return &Tx{
		CoinbaseHeight: height,
		Outs:           []TxOut{{Value: value, Owner: miner}},
	}
}

// Subsidy returns the block reward at a height under a Bitcoin-style
// halving schedule. It reaches zero after 64 halvings.
func Subsidy(height, initial, halvingInterval uint64) uint64 {
	if halvingInterval == 0 {
		return initial
	}
	halvings := height / halvingInterval
	if halvings >= 64 {
		return 0
	}
	return initial >> halvings
}

// BlockBody is the transaction list carried by a block; it satisfies
// chain.Payload with a Merkle-root commitment (§II-A, Fig. 1). Like a Tx
// it is immutable after its first Root(), which is memoized under the
// same self-pointer rule: every store a block reaches checks the root.
type BlockBody struct {
	Txs []*Tx

	memoSelf *BlockBody
	memoRoot hashx.Hash
}

// Verify interface compliance at compile time.
var _ interface {
	Root() hashx.Hash
	Size() int
	TxCount() int
} = (*BlockBody)(nil)

// Root returns the Merkle root over the transaction IDs.
func (b *BlockBody) Root() hashx.Hash {
	if b.memoSelf != b {
		ids := make([]hashx.Hash, len(b.Txs))
		for i, tx := range b.Txs {
			ids[i] = tx.ID()
		}
		b.memoRoot = merkle.RootOfHashes(ids)
		b.memoSelf = b
	}
	return b.memoRoot
}

// Size returns the summed modeled wire size of all transactions.
func (b *BlockBody) Size() int {
	sz := 0
	for _, tx := range b.Txs {
		sz += tx.EncodedSize()
	}
	return sz
}

// TxCount returns the number of transactions.
func (b *BlockBody) TxCount() int { return len(b.Txs) }

// Validation errors.
var (
	ErrMissingOutput = errors.New("utxo: input spends unknown or already-spent output")
	ErrBadSignature  = errors.New("utxo: bad input signature")
	ErrWrongOwner    = errors.New("utxo: public key does not match output owner")
	ErrValueOverflow = errors.New("utxo: value overflow")
	ErrInsufficient  = errors.New("utxo: inputs worth less than outputs")
	ErrCoinbaseValue = errors.New("utxo: coinbase exceeds subsidy plus fees")
)

// missingOutputError is ErrMissingOutput for one input: a rejected
// mempool add is common under load, so the outpoint is formatted only
// when Error is called.
type missingOutputError struct {
	prev Outpoint
	dup  bool // the input repeats an earlier one of the same transaction
}

func (e *missingOutputError) Error() string {
	if e.dup {
		return ErrMissingOutput.Error() + ": duplicate input " + e.prev.String()
	}
	return ErrMissingOutput.Error() + ": " + e.prev.String()
}

func (e *missingOutputError) Unwrap() error { return ErrMissingOutput }
