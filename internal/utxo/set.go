package utxo

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/chain"
	"repro/internal/keys"
)

// coin is one transaction output ever created: its value and owner, fixed
// by the transaction that created it, the outpoint that names it, and the
// catalog row of the first pooled transaction that spends it (0 for none;
// txCatalog.spenders holds any others).
type coin struct {
	TxOut
	op      Outpoint
	spender uint32
}

// poolEntry is what a mempool reads about one transaction: the pointer it
// validated, its fee and modeled size, and the fee rate Assemble orders
// by.
type poolEntry struct {
	tx      *Tx
	fee     uint64
	size    int
	feeRate float64
}

// price fills the entry's fee, size and fee rate for a fee CheckTx
// returned.
func (e *poolEntry) price(fee uint64) {
	e.fee, e.size = fee, e.tx.EncodedSize()
	e.feeRate = float64(fee) / float64(e.size)
}

// txEntry is one row of the transaction table.
type txEntry struct {
	poolEntry // fee, size and feeRate once priced
	priced    bool
	// base is the id of output 0 once the outputs are in the coin table,
	// noCoins before: a transaction can be pooled before any replica
	// applies it.
	base uint32
	// carrier is the first catalogued block that carries the transaction
	// (0 for none); further carriers sit in txCatalog.carriers.
	carrier chain.BlockID
}

const noCoins = ^uint32(0)

// txCatalog is the append-only content of one network's transactions
// (see internal/catalog): a catalog of every transaction its replicas
// have pooled or applied, and a column of every coin those transactions
// created, each under a dense id. A transaction's fee, its coins, the
// blocks that carry it and the coins it spends are pure functions of the
// transactions and blocks themselves, so the replicas of a network
// (Ledger.Replica) share one txCatalog and keep only bitsets over it:
// which coins are unspent (Set), which transactions are pooled and which
// coins they claim (Mempool). A transaction's coins take consecutive ids,
// so one row per transaction finds them all.
type txCatalog struct {
	txs   catalog.Catalog[uint32, txEntry] // tx id -> row -> entry
	coins []coin
	// spenders holds every pooled spender of a coin past the first; nil
	// until two transactions of the network spend one coin — a double
	// spend.
	spenders map[uint32][]uint32
	// carriers holds every carrier of a transaction past the first; nil
	// until one transaction is carried by two blocks — a fork.
	carriers map[uint32][]chain.BlockID
}

func newCatalog() *txCatalog {
	return &txCatalog{txs: catalog.New[uint32, txEntry]()}
}

// row returns tx's row, entering tx on first sight.
func (c *txCatalog) row(tx *Tx) uint32 {
	txID := tx.ID()
	r := c.txs.ID(txID)
	if r == 0 {
		r = c.txs.Add(txID, txEntry{poolEntry: poolEntry{tx: tx}, base: noCoins})
	}
	return r
}

// register returns the id of tx's output 0, entering tx's outputs on
// first sight.
func (c *txCatalog) register(tx *Tx) uint32 {
	e := c.txs.At(c.row(tx))
	if e.base == noCoins {
		e.base = uint32(len(c.coins))
		txID := tx.ID()
		for i, out := range tx.Outs {
			c.coins = append(c.coins, coin{TxOut: out, op: Outpoint{TxID: txID, Index: uint32(i)}})
		}
	}
	return e.base
}

// lookup returns the id of the coin op names, if any transaction applied
// so far created it.
func (c *txCatalog) lookup(op Outpoint) (uint32, bool) {
	r := c.txs.ID(op.TxID)
	base := c.txs.At(r).base
	if r == 0 || base == noCoins {
		return 0, false
	}
	id := uint64(base) + uint64(op.Index)
	if id >= uint64(len(c.coins)) || c.coins[id].op != op {
		return 0, false
	}
	return uint32(id), true
}

// spentBy records that the transaction in row r spends the coin id.
func (c *txCatalog) spentBy(id, r uint32) { note(&c.coins[id].spender, &c.spenders, id, r) }

// carriedBy records that block carries the transaction in row r.
func (c *txCatalog) carriedBy(r uint32, block chain.BlockID) {
	note(&c.txs.At(r).carrier, &c.carriers, r, block)
}

// note records v for key k once: in *first while that is unset, past it
// in the overflow map *more, which is allocated on the first overflow.
func note[V comparable](first *V, more *map[uint32][]V, k uint32, v V) {
	var none V
	switch {
	case *first == none:
		*first = v
	case *first != v && !slices.Contains((*more)[k], v):
		if *more == nil {
			*more = make(map[uint32][]V)
		}
		(*more)[k] = append((*more)[k], v)
	}
}

// before is the deterministic coin-selection order: larger value first,
// ties broken by outpoint identity.
func (c *txCatalog) before(a, b uint32) bool {
	ca, cb := &c.coins[a], &c.coins[b]
	if ca.Value != cb.Value {
		return ca.Value > cb.Value
	}
	if cmp := ca.op.TxID.Cmp(cb.op.TxID); cmp != 0 {
		return cmp < 0
	}
	return ca.op.Index < cb.op.Index
}

// Set is the unspent-transaction-output set: the ledger state a Bitcoin
// node needs to validate new transactions. It holds one bit per catalog
// coin plus the running count and supply; what a coin is worth and whose
// it is lives in the catalog. The owner index that keeps per-address coin
// selection O(own outputs) is built on first use — only a node that
// originates payments needs one — and maintained from then on.
type Set struct {
	cat     *txCatalog
	unspent bitset.Set // coin ids unspent here
	n       int
	total   uint64
	byOwner map[keys.Address][]uint32 // owner -> unspent coin ids; nil until first use
}

// NewSet returns an empty UTXO set with a catalog of its own.
func NewSet() *Set {
	return &Set{cat: newCatalog()}
}

// Len returns the number of unspent outputs.
func (s *Set) Len() int { return s.n }

// TotalValue returns the sum of all unspent outputs: total supply.
func (s *Set) TotalValue() uint64 { return s.total }

// Balance returns the summed unspent value owned by addr.
func (s *Set) Balance(addr keys.Address) uint64 {
	var sum uint64
	for _, id := range s.coinsOf(addr) {
		sum += s.cat.coins[id].Value
	}
	return sum
}

// Get looks up an unspent output.
func (s *Set) Get(op Outpoint) (TxOut, bool) {
	id, ok := s.find(op)
	if !ok {
		return TxOut{}, false
	}
	return s.cat.coins[id].TxOut, true
}

// find returns the id of the coin op names if it is unspent here.
func (s *Set) find(op Outpoint) (uint32, bool) {
	id, known := s.cat.lookup(op)
	return id, known && s.has(id)
}

// coinsOf is addr's slice of the owner index, in an order that depends on
// the history of spends. It aliases the index: read only.
func (s *Set) coinsOf(addr keys.Address) []uint32 {
	if s.byOwner == nil {
		s.buildOwnerIndex()
	}
	return s.byOwner[addr]
}

// buildOwnerIndex groups the unspent ids by owner: count first, then fill
// slices carved out of one array, so that building the index in the
// middle of a run costs a handful of allocations however many owners
// there are.
func (s *Set) buildOwnerIndex() {
	ids := make([]uint32, 0, s.n)
	s.unspent.Each(func(id uint32) { ids = append(ids, id) })
	counts := make(map[keys.Address]int)
	for _, id := range ids {
		counts[s.cat.coins[id].Owner]++
	}
	s.byOwner = make(map[keys.Address][]uint32, len(counts))
	backing := make([]uint32, len(ids))
	for _, id := range ids {
		owner := s.cat.coins[id].Owner
		owned, started := s.byOwner[owner]
		if !started {
			n := counts[owner]
			owned, backing = backing[:0:n], backing[n:]
		}
		s.byOwner[owner] = append(owned, id)
	}
}

// OutpointsOf returns a copy of the unspent outpoints owned by addr, in
// unspecified order. Coin selection reads coinsOf; this is the read-only
// view for code outside the package.
func (s *Set) OutpointsOf(addr keys.Address) []Outpoint {
	owned := s.coinsOf(addr)
	out := make([]Outpoint, len(owned))
	for i, id := range owned {
		out[i] = s.cat.coins[id].op
	}
	return out
}

func (s *Set) has(id uint32) bool { return s.unspent.Has(id) }

func (s *Set) add(id uint32) {
	s.unspent.Add(id)
	c := &s.cat.coins[id]
	s.n++
	s.total += c.Value
	if s.byOwner != nil {
		s.byOwner[c.Owner] = append(s.byOwner[c.Owner], id)
	}
}

func (s *Set) remove(id uint32) {
	s.unspent.Remove(id)
	c := &s.cat.coins[id]
	s.n--
	s.total -= c.Value
	if s.byOwner == nil {
		return
	}
	// A spend follows a selection pass over the same slice, so finding the
	// coin by scanning adds nothing to the order of a payment's cost; an
	// undo removes what was appended last, hence from the end.
	owned := s.byOwner[c.Owner]
	last := len(owned) - 1
	i := last
	for owned[i] != id {
		i--
	}
	owned[i] = owned[last]
	if last == 0 {
		delete(s.byOwner, c.Owner)
	} else {
		s.byOwner[c.Owner] = owned[:last]
	}
}

// CheckTx validates a non-coinbase transaction against the set without
// mutating it, returning the fee it pays.
func (s *Set) CheckTx(tx *Tx) (fee uint64, err error) {
	var ids [4]uint32
	fee, _, err = s.check(tx, ids[:0])
	return fee, err
}

// check is CheckTx that also appends the ids of tx's inputs to ids, for
// the caller about to spend them.
func (s *Set) check(tx *Tx, ids []uint32) (fee uint64, _ []uint32, err error) {
	if tx.IsCoinbase() {
		return 0, nil, errors.New("utxo: CheckTx does not accept coinbase transactions")
	}
	// Once a transaction's content has checked out at some ledger (see
	// txMemo), what is left to ask is whether its inputs are unspent here
	// and still carry the keys and signatures that were checked.
	memo := tx.memoized()
	if memo.valid {
		for i, in := range tx.Ins {
			id, ok := s.find(in.Prev)
			if !ok {
				return 0, nil, &missingOutputError{prev: in.Prev}
			}
			if err := memo.checkSig(i, in, s.cat.coins[id].Owner, memo.sigHash); err != nil {
				return 0, nil, err
			}
			ids = append(ids, id)
		}
		return memo.fee, ids, nil
	}
	digest := tx.SigHash()
	var inSum uint64
	for i, in := range tx.Ins {
		id, ok := s.find(in.Prev)
		if !ok {
			return 0, nil, &missingOutputError{prev: in.Prev}
		}
		// A repeated input passed every check the first time round, so
		// it is among the ids gathered so far.
		for _, earlier := range ids {
			if earlier == id {
				return 0, nil, &missingOutputError{prev: in.Prev, dup: true}
			}
		}
		ids = append(ids, id)
		out := &s.cat.coins[id]
		if err := memo.checkSig(i, in, out.Owner, digest); err != nil {
			return 0, nil, err
		}
		next := inSum + out.Value
		if next < inSum {
			return 0, nil, ErrValueOverflow
		}
		inSum = next
	}
	var outSum uint64
	for _, out := range tx.Outs {
		next := outSum + out.Value
		if next < outSum {
			return 0, nil, ErrValueOverflow
		}
		outSum = next
	}
	if inSum < outSum {
		return 0, nil, fmt.Errorf("%w: in=%d out=%d", ErrInsufficient, inSum, outSum)
	}
	memo.valid, memo.fee, memo.sigHash = true, inSum-outSum, digest
	return memo.fee, ids, nil
}

// applyTx validates and applies one transaction.
func (s *Set) applyTx(tx *Tx) (fee uint64, err error) {
	if !tx.IsCoinbase() {
		var buf [4]uint32
		var ids []uint32
		fee, ids, err = s.check(tx, buf[:0])
		if err != nil {
			return 0, err
		}
		for _, id := range ids {
			s.remove(id)
		}
	}
	s.create(tx)
	return fee, nil
}

// create adds tx's outputs to the set.
func (s *Set) create(tx *Tx) {
	base := s.cat.register(tx)
	for i := range tx.Outs {
		s.add(base + uint32(i))
	}
}

// undoTx reverses an applied transaction: created outputs are removed and
// spent outputs restored, in reverse order. Which coins those are is
// content the catalog already holds, so no journal of the apply is kept.
func (s *Set) undoTx(tx *Tx) {
	base := s.cat.txs.At(s.cat.txs.ID(tx.ID())).base
	for i := len(tx.Outs) - 1; i >= 0; i-- {
		s.remove(base + uint32(i))
	}
	for i := len(tx.Ins) - 1; i >= 0; i-- {
		id, _ := s.cat.lookup(tx.Ins[i].Prev)
		s.add(id)
	}
}

// undoPayments reverses the non-coinbase transactions of txs, last first.
func (s *Set) undoPayments(txs []*Tx) {
	for i := len(txs) - 1; i >= 0; i-- {
		if !txs[i].IsCoinbase() {
			s.undoTx(txs[i])
		}
	}
}

// ApplyBlock validates and applies a block body: non-coinbase transactions
// first (accumulating fees), then the coinbase, whose outputs may mint at
// most subsidy+fees. On any failure the set is left unchanged.
func (s *Set) ApplyBlock(body *BlockBody, subsidy uint64) error {
	var fees uint64
	var coinbase *Tx
	for i, tx := range body.Txs {
		if tx.IsCoinbase() {
			if coinbase != nil {
				s.undoPayments(body.Txs[:i])
				return errors.New("utxo: multiple coinbase transactions")
			}
			if i != 0 {
				s.undoPayments(body.Txs[:i])
				return errors.New("utxo: coinbase must be first")
			}
			coinbase = tx
			continue
		}
		fee, err := s.applyTx(tx)
		if err != nil {
			s.undoPayments(body.Txs[:i])
			return fmt.Errorf("utxo: tx %d: %w", i, err)
		}
		fees += fee
	}
	if coinbase != nil {
		var mint uint64
		for _, out := range coinbase.Outs {
			mint += out.Value
		}
		if mint > subsidy+fees {
			s.undoPayments(body.Txs)
			return fmt.Errorf("%w: mint=%d allowed=%d", ErrCoinbaseValue, mint, subsidy+fees)
		}
		s.create(coinbase)
	}
	return nil
}

// UndoBlock reverses an applied block body so a reorg can disconnect it
// (§IV-A: abandoned blocks' effects must be reverted and their
// transactions re-included): the coinbase, applied last, goes first.
func (s *Set) UndoBlock(body *BlockBody) {
	if len(body.Txs) > 0 && body.Txs[0].IsCoinbase() {
		s.undoTx(body.Txs[0])
	}
	s.undoPayments(body.Txs)
}
