package account

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/merkle"
)

// Intrinsic gas costs, shaped after Ethereum's.
const (
	GasTxBase     = 21_000 // every transaction
	GasTxDataByte = 16     // per byte of call/creation data
	GasCreateByte = 200    // per byte of deployed code
)

// Tx is an account-model transaction: a nonce-ordered transfer with an
// optional contract call or creation. Gas is "the unit used to measure
// the fees required for a particular computation" (§VI-A).
type Tx struct {
	From     keys.Address
	Nonce    uint64
	To       *keys.Address // nil creates a contract from Data
	Value    uint64
	GasLimit uint64
	GasPrice uint64
	Data     []byte
	PubKey   ed25519.PublicKey
	Sig      []byte

	// verified holds the signature verdict (see keys.SigMemo): the
	// simulation hands one *Tx to every node's mempool, the producer's
	// BuildBlock and every replica's validateBlock, and Sign binds it, so
	// an honest run never runs ed25519 verification on a transaction.
	verified keys.SigMemo
}

// txWireOverhead is the modeled fixed encoding cost of a transaction.
const txWireOverhead = keys.AddressSize + 8 + keys.AddressSize + 8 + 8 + 8 +
	ed25519.PublicKeySize + ed25519.SignatureSize + 4

// EncodedSize returns the modeled wire size.
func (tx *Tx) EncodedSize() int { return txWireOverhead + len(tx.Data) }

// appendSigBytes serializes the signed portion into buf. Callers hand
// in a stack scratch sized for data-free transactions — SigHash and ID
// run per signature check, so a heap buffer each was allocator churn.
func (tx *Tx) appendSigBytes(buf []byte) []byte {
	buf = append(buf, tx.From[:]...)
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], tx.Nonce)
	buf = append(buf, scratch[:]...)
	if tx.To != nil {
		buf = append(buf, 0x01)
		buf = append(buf, tx.To[:]...)
	} else {
		buf = append(buf, 0x00)
	}
	for _, v := range []uint64{tx.Value, tx.GasLimit, tx.GasPrice} {
		binary.BigEndian.PutUint64(scratch[:], v)
		buf = append(buf, scratch[:]...)
	}
	return append(buf, tx.Data...)
}

// sigScratch holds a data-free transaction's full wire form (signature
// fields included) without spilling to the heap.
type sigScratch [txWireOverhead + 64]byte

// SigHash is the digest the sender signs.
func (tx *Tx) SigHash() hashx.Hash {
	var sb sigScratch
	return hashx.Sum(tx.appendSigBytes(sb[:0]))
}

// ID is the transaction identifier (covers the signature).
func (tx *Tx) ID() hashx.Hash {
	var sb sigScratch
	buf := tx.appendSigBytes(sb[:0])
	buf = append(buf, tx.PubKey...)
	buf = append(buf, tx.Sig...)
	return hashx.Sum(buf)
}

// Sign fills From, PubKey and Sig from the key pair. The ID covers Sig,
// so the bytes are made at once.
func (tx *Tx) Sign(kp *keys.KeyPair) {
	tx.From = kp.Address()
	tx.PubKey, tx.Sig = kp.Pub, nil
	kp.SignMemo(&tx.verified, tx.From, tx.SigHash())
	tx.verified.Sig(&tx.Sig)
}

// VerifySig checks the signature and that PubKey matches From. The
// verdict is memoized per pointer over From, SigHash (recomputed on
// every call), PubKey and Sig: every call after signing or a first
// check pays that one hash instead of ed25519, and a transaction mutated
// or re-signed afterwards re-verifies.
func (tx *Tx) VerifySig() bool {
	return tx.verified.Verify(tx.From, tx.SigHash(), tx.PubKey, &tx.Sig)
}

// IntrinsicGas is the gas charged before any execution.
func (tx *Tx) IntrinsicGas() uint64 {
	return GasTxBase + uint64(len(tx.Data))*GasTxDataByte
}

// Receipt records a transaction's execution outcome, the per-transaction
// artifact Ethereum stores in its receipts trie (§II-A, §V-A).
type Receipt struct {
	TxID    hashx.Hash
	Status  uint8 // 1 success, 0 reverted/failed
	GasUsed uint64
	Return  uint64
	Logs    []uint64
	// Contract is the created contract's address when the tx deployed one.
	Contract keys.Address
}

// receiptWireSize is the modeled encoding cost of one receipt.
func (r *Receipt) receiptWireSize() int {
	return hashx.Size + 1 + 8 + 8 + 8*len(r.Logs) + keys.AddressSize
}

// appendEncode serializes the receipt for Merkle commitment into buf.
func (r *Receipt) appendEncode(buf []byte) []byte {
	buf = append(buf, r.TxID[:]...)
	buf = append(buf, r.Status)
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], r.GasUsed)
	buf = append(buf, scratch[:]...)
	binary.BigEndian.PutUint64(scratch[:], r.Return)
	buf = append(buf, scratch[:]...)
	for _, l := range r.Logs {
		binary.BigEndian.PutUint64(scratch[:], l)
		buf = append(buf, scratch[:]...)
	}
	return append(buf, r.Contract[:]...)
}

// ReceiptsRoot is the Merkle root over encoded receipts. One scratch
// buffer serves the whole batch — HashLeaf consumes, never retains.
func ReceiptsRoot(receipts []*Receipt) hashx.Hash {
	leaves := make([]hashx.Hash, len(receipts))
	var buf []byte
	for i, r := range receipts {
		buf = r.appendEncode(buf[:0])
		leaves[i] = merkle.HashLeaf(buf)
	}
	return merkle.RootOfHashes(leaves)
}

// Execution errors surfaced by ApplyTx.
var (
	ErrBadNonce     = errors.New("account: wrong nonce")
	ErrBadSig       = errors.New("account: bad signature")
	ErrInsufficient = errors.New("account: insufficient balance")
	ErrGasTooLow    = errors.New("account: gas limit below intrinsic gas")
)

// ApplyTx executes one transaction against state, crediting gas fees to
// coinbase. It returns the receipt; the state is modified in place. On
// a validation error (bad nonce/signature/funds) the state is untouched
// and no receipt is produced. On an execution failure (revert, out of
// gas) the value transfer and execution effects are rolled back but gas
// is still consumed and the nonce still advances — Ethereum's rules.
func ApplyTx(state *State, tx *Tx, coinbase keys.Address) (*Receipt, error) {
	if !tx.VerifySig() {
		return nil, ErrBadSig
	}
	sender := state.GetAccount(tx.From)
	if tx.Nonce != sender.Nonce {
		return nil, fmt.Errorf("%w: tx %d, account %d", ErrBadNonce, tx.Nonce, sender.Nonce)
	}
	intrinsic := tx.IntrinsicGas()
	if tx.GasLimit < intrinsic {
		return nil, fmt.Errorf("%w: limit %d < intrinsic %d", ErrGasTooLow, tx.GasLimit, intrinsic)
	}
	upfront := tx.GasLimit * tx.GasPrice
	if sender.Balance < upfront || sender.Balance-upfront < tx.Value {
		return nil, fmt.Errorf("%w: balance %d, need value %d + gas %d",
			ErrInsufficient, sender.Balance, tx.Value, upfront)
	}

	// Charge the full gas limit up front and advance the nonce; the
	// unused remainder is refunded below.
	state.SubBalance(tx.From, upfront)
	state.BumpNonce(tx.From)

	receipt := &Receipt{TxID: tx.ID(), Status: 1, GasUsed: intrinsic}
	execGas := tx.GasLimit - intrinsic
	switch {
	case tx.To == nil:
		// Contract creation: Data is the code; charge per byte. A failure
		// has nothing to roll back: the state holds only the gas charge
		// and the nonce bump, which a failure keeps.
		createGas := uint64(len(tx.Data)) * GasCreateByte
		if createGas > execGas {
			receipt.Status = 0
			receipt.GasUsed = tx.GasLimit
		} else {
			receipt.GasUsed += createGas
			addr := ContractAddress(tx.From, tx.Nonce)
			state.SetAccount(addr, Account{Balance: tx.Value, Code: append([]byte{}, tx.Data...)})
			state.SubBalance(tx.From, tx.Value)
			receipt.Contract = addr
		}
	default:
		target := state.GetAccount(*tx.To)
		var checkpoint *State
		if target.IsContract() {
			// Checkpoint after nonce/gas, before the value transfer, so a
			// failed call keeps the former and rolls back the latter. A
			// plain transfer cannot fail and takes none: each Copy
			// freezes the trie, and the next write thaws a new one.
			checkpoint = state.Copy()
		}
		// Plain value transfer.
		state.SubBalance(tx.From, tx.Value)
		state.AddBalance(*tx.To, tx.Value)
		if target.IsContract() {
			res, err := Execute(state, target.Code, CallContext{
				Contract: *tx.To,
				Caller:   tx.From,
				Value:    tx.Value,
				Data:     tx.Data,
				GasLimit: execGas,
			})
			receipt.GasUsed += res.GasUsed
			receipt.Return = res.Return
			receipt.Logs = res.Logs
			if err != nil {
				// Revert all effects of the call including the value
				// transfer; gas is still consumed.
				receipt.Status = 0
				receipt.Logs = nil
				receipt.Return = 0
				if errors.Is(err, ErrOutOfGas) {
					receipt.GasUsed = tx.GasLimit
				}
				state.restore(checkpoint)
			}
		}
	}

	// Refund unused gas; pay the miner/validator for gas consumed.
	state.AddBalance(tx.From, (tx.GasLimit-receipt.GasUsed)*tx.GasPrice)
	state.AddBalance(coinbase, receipt.GasUsed*tx.GasPrice)
	return receipt, nil
}

// restore resets the state view to a checkpoint taken with Copy. It
// freezes the checkpoint's trie, so the two states never share one that
// either could write in place.
func (s *State) restore(checkpoint *State) { s.t = checkpoint.Trie() }
