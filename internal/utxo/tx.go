// Package utxo implements a Bitcoin-style ledger (paper §II-A, reference
// implementation #1): transactions spend unspent transaction outputs,
// blocks bundle transactions under a Merkle root, miners collect fees plus
// a halving block subsidy, and the mempool holds the pending-transaction
// backlog that §VI quotes at 186,951 for Bitcoin. Block bodies satisfy
// chain.Payload, so the generic fork-choice/reorg machinery of
// internal/chain drives the ledger's view of history.
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
type Tx struct {
	Ins            []TxIn
	Outs           []TxOut
	CoinbaseHeight uint64

	// memoSigSelf/memoSigsOK cache an all-inputs-signatures-valid verdict
	// while memoSigSelf still points at this exact Tx value (a copied Tx
	// re-verifies). The signatures cover SigHash — pure transaction
	// content — so the verdict holds at every ledger the same pointer is
	// submitted to; the state-dependent checks (output existence, owner
	// binding, amounts) are NOT cached and re-run per ledger. Only
	// success is cached: a failing input re-verifies on every call.
	memoSigSelf *Tx
	memoSigsOK  bool
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

// ID returns the transaction identifier, covering signatures as well.
func (tx *Tx) ID() hashx.Hash {
	var sb sigScratch
	buf := tx.appendSigBytes(sb[:0])
	for _, in := range tx.Ins {
		buf = append(buf, in.PubKey...)
		buf = append(buf, in.Sig...)
	}
	return hashx.SumDouble(buf)
}

// Sign fills in the i-th input's public key and signature.
func (tx *Tx) Sign(i int, kp *keys.KeyPair) error {
	if i < 0 || i >= len(tx.Ins) {
		return fmt.Errorf("utxo: sign: input %d out of range", i)
	}
	digest := tx.SigHash()
	tx.Ins[i].PubKey = kp.Pub
	tx.Ins[i].Sig = kp.Sign(digest[:])
	return nil
}

// SignAll signs every input with the same key.
func (tx *Tx) SignAll(kp *keys.KeyPair) {
	digest := tx.SigHash()
	sig := kp.Sign(digest[:])
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
// chain.Payload with a Merkle-root commitment (§II-A, Fig. 1).
type BlockBody struct {
	Txs []*Tx
}

// Verify interface compliance at compile time.
var _ interface {
	Root() hashx.Hash
	Size() int
	TxCount() int
} = (*BlockBody)(nil)

// Root returns the Merkle root over the transaction IDs.
func (b *BlockBody) Root() hashx.Hash {
	ids := make([]hashx.Hash, len(b.Txs))
	for i, tx := range b.Txs {
		ids[i] = tx.ID()
	}
	return merkle.RootOfHashes(ids)
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

// Set is the unspent-transaction-output set: the ledger state a Bitcoin
// node needs to validate new transactions. An owner index keeps
// per-address coin selection O(own outputs) instead of O(whole set), and
// carries each coin's value so selection never looks a candidate up in
// outs.
type Set struct {
	outs     map[Outpoint]coin
	byOwner  map[keys.Address][]ownedCoin
	balances map[keys.Address]uint64
	total    uint64
}

// coin is an unspent output plus its position in its owner's byOwner
// slice, which makes removal a swap with the last element.
type coin struct {
	value uint64
	owner keys.Address
	slot  uint32
}

// ownedCoin is one entry of the owner index.
type ownedCoin struct {
	op    Outpoint
	value uint64
}

// before is the deterministic coin-selection order: larger value first,
// ties broken by outpoint identity.
func (c ownedCoin) before(o ownedCoin) bool {
	if c.value != o.value {
		return c.value > o.value
	}
	if cmp := c.op.TxID.Cmp(o.op.TxID); cmp != 0 {
		return cmp < 0
	}
	return c.op.Index < o.op.Index
}

// NewSet returns an empty UTXO set.
func NewSet() *Set {
	return &Set{
		outs:     make(map[Outpoint]coin),
		byOwner:  make(map[keys.Address][]ownedCoin),
		balances: make(map[keys.Address]uint64),
	}
}

// Len returns the number of unspent outputs.
func (s *Set) Len() int { return len(s.outs) }

// TotalValue returns the sum of all unspent outputs: total supply.
func (s *Set) TotalValue() uint64 { return s.total }

// Balance returns the summed unspent value owned by addr.
func (s *Set) Balance(addr keys.Address) uint64 { return s.balances[addr] }

// Get looks up an unspent output.
func (s *Set) Get(op Outpoint) (TxOut, bool) {
	c, ok := s.outs[op]
	return TxOut{Value: c.value, Owner: c.owner}, ok
}

// coinsOf is addr's slice of the owner index, in slot order, which
// depends on the history of spends. It aliases the index: read only.
func (s *Set) coinsOf(addr keys.Address) []ownedCoin { return s.byOwner[addr] }

// OutpointsOf returns a copy of the unspent outpoints owned by addr, in
// unspecified order. Coin selection reads coinsOf, which also carries the
// values; this is the read-only view for code outside the package.
func (s *Set) OutpointsOf(addr keys.Address) []Outpoint {
	owned := s.coinsOf(addr)
	out := make([]Outpoint, len(owned))
	for i, c := range owned {
		out[i] = c.op
	}
	return out
}

func (s *Set) add(op Outpoint, out TxOut) {
	owned := s.byOwner[out.Owner]
	s.outs[op] = coin{value: out.Value, owner: out.Owner, slot: uint32(len(owned))}
	s.byOwner[out.Owner] = append(owned, ownedCoin{op: op, value: out.Value})
	s.balances[out.Owner] += out.Value
	s.total += out.Value
}

func (s *Set) remove(op Outpoint) (TxOut, bool) {
	c, ok := s.outs[op]
	if !ok {
		return TxOut{}, false
	}
	delete(s.outs, op)
	owned := s.byOwner[c.owner]
	last := len(owned) - 1
	if int(c.slot) != last {
		moved := owned[last]
		owned[c.slot] = moved
		m := s.outs[moved.op]
		m.slot = c.slot
		s.outs[moved.op] = m
	}
	if last == 0 {
		delete(s.byOwner, c.owner)
	} else {
		s.byOwner[c.owner] = owned[:last]
	}
	s.balances[c.owner] -= c.value
	if s.balances[c.owner] == 0 {
		delete(s.balances, c.owner)
	}
	s.total -= c.value
	return TxOut{Value: c.value, Owner: c.owner}, true
}

// CheckTx validates a non-coinbase transaction against the set without
// mutating it, returning the fee it pays.
func (s *Set) CheckTx(tx *Tx) (fee uint64, err error) {
	if tx.IsCoinbase() {
		return 0, errors.New("utxo: CheckTx does not accept coinbase transactions")
	}
	// Signatures cover pure transaction content, so one verified pass
	// serves every ledger this pointer reaches (the memo); the state
	// checks below always re-run against this set.
	sigsMemoed := tx.memoSigSelf == tx && tx.memoSigsOK
	var digest hashx.Hash
	if !sigsMemoed {
		digest = tx.SigHash()
	}
	var inSum uint64
	seen := make(map[Outpoint]bool, len(tx.Ins))
	for i, in := range tx.Ins {
		if seen[in.Prev] {
			return 0, fmt.Errorf("%w: duplicate input %s", ErrMissingOutput, in.Prev)
		}
		seen[in.Prev] = true
		out, ok := s.outs[in.Prev]
		if !ok {
			return 0, fmt.Errorf("%w: %s", ErrMissingOutput, in.Prev)
		}
		if keys.AddressOf(in.PubKey) != out.owner {
			return 0, fmt.Errorf("%w: input %d", ErrWrongOwner, i)
		}
		if !sigsMemoed && !keys.Verify(in.PubKey, digest[:], in.Sig) {
			return 0, fmt.Errorf("%w: input %d", ErrBadSignature, i)
		}
		next := inSum + out.value
		if next < inSum {
			return 0, ErrValueOverflow
		}
		inSum = next
	}
	// Every input signature verified (or was already memoed as valid).
	tx.memoSigSelf = tx
	tx.memoSigsOK = true
	var outSum uint64
	for _, out := range tx.Outs {
		next := outSum + out.Value
		if next < outSum {
			return 0, ErrValueOverflow
		}
		outSum = next
	}
	if inSum < outSum {
		return 0, fmt.Errorf("%w: in=%d out=%d", ErrInsufficient, inSum, outSum)
	}
	return inSum - outSum, nil
}

// spentOutput records one consumed output for undo.
type spentOutput struct {
	op  Outpoint
	out TxOut
}

// Undo journals one applied block so a reorg can disconnect it (§IV-A:
// abandoned blocks' effects must be reverted and their transactions
// re-included).
type Undo struct {
	spent   []spentOutput
	created []Outpoint
}

// ApplyTx validates and applies one transaction, journaling into undo.
func (s *Set) applyTx(tx *Tx, undo *Undo) (fee uint64, err error) {
	if !tx.IsCoinbase() {
		fee, err = s.CheckTx(tx)
		if err != nil {
			return 0, err
		}
	}
	for _, in := range tx.Ins {
		out, _ := s.remove(in.Prev)
		undo.spent = append(undo.spent, spentOutput{op: in.Prev, out: out})
	}
	id := tx.ID()
	for i, out := range tx.Outs {
		op := Outpoint{TxID: id, Index: uint32(i)}
		s.add(op, out)
		undo.created = append(undo.created, op)
	}
	return fee, nil
}

// ApplyBlock validates and applies a block body: non-coinbase transactions
// first (accumulating fees), then the coinbase, whose outputs may mint at
// most subsidy+fees. On any failure the set is left unchanged.
func (s *Set) ApplyBlock(body *BlockBody, subsidy uint64) (*Undo, error) {
	undo := &Undo{}
	var fees uint64
	var coinbase *Tx
	for i, tx := range body.Txs {
		if tx.IsCoinbase() {
			if coinbase != nil {
				s.UndoBlock(undo)
				return nil, errors.New("utxo: multiple coinbase transactions")
			}
			if i != 0 {
				s.UndoBlock(undo)
				return nil, errors.New("utxo: coinbase must be first")
			}
			coinbase = tx
			continue
		}
		fee, err := s.applyTx(tx, undo)
		if err != nil {
			s.UndoBlock(undo)
			return nil, fmt.Errorf("utxo: tx %d: %w", i, err)
		}
		fees += fee
	}
	if coinbase != nil {
		var mint uint64
		for _, out := range coinbase.Outs {
			mint += out.Value
		}
		if mint > subsidy+fees {
			s.UndoBlock(undo)
			return nil, fmt.Errorf("%w: mint=%d allowed=%d", ErrCoinbaseValue, mint, subsidy+fees)
		}
		if _, err := s.applyTx(coinbase, undo); err != nil {
			s.UndoBlock(undo)
			return nil, err
		}
	}
	return undo, nil
}

// UndoBlock reverses an applied block: created outputs are removed and
// spent outputs restored, in reverse order.
func (s *Set) UndoBlock(undo *Undo) {
	for i := len(undo.created) - 1; i >= 0; i-- {
		s.remove(undo.created[i])
	}
	for i := len(undo.spent) - 1; i >= 0; i-- {
		s.add(undo.spent[i].op, undo.spent[i].out)
	}
}
