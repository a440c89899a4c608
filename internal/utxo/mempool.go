package utxo

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/hashx"
)

// Mempool errors.
var (
	ErrPoolConflict = errors.New("utxo: transaction conflicts with a pooled transaction")
	ErrPoolDup      = errors.New("utxo: transaction already pooled")
)

// Mempool holds validated, unconfirmed transactions ordered by fee rate.
// It is the "pending transactions" backlog of §VI. Transactions must spend
// confirmed outputs: chains of unconfirmed transactions are rejected, a
// simplification that keeps validation stateless against the UTXO set.
//
// What a pooled transaction is — its pointer, fee, size and fee rate, and
// which coins it spends — is a row of the set's catalog, shared by the
// network's replicas. The pool itself is three pieces of state over that
// table: which rows are pooled, which coins pooled rows claim, and the
// order rows arrived in, which breaks fee-rate ties.
type Mempool struct {
	set     *Set
	pooled  bitset.Set // catalog rows pooled here
	claimed bitset.Set // coin ids an input of a pooled row spends
	// order lists pooled rows in arrival order. A removed row stays until
	// the next Add compacts the list (stale counts them), so a burst of
	// removals costs one pass.
	order []uint32
	stale int
	// own holds this pool's entries for the transactions it validated
	// under another pointer than the catalog's: the ones it mines.
	own   catalog.Own[uint32, *poolEntry]
	bytes int
}

// NewMempool creates a pool validating against the given UTXO set.
func NewMempool(set *Set) *Mempool { return &Mempool{set: set} }

// Len returns the number of pooled transactions.
func (m *Mempool) Len() int { return len(m.order) - m.stale }

// Bytes returns the total modeled size of pooled transactions.
func (m *Mempool) Bytes() int { return m.bytes }

// entry returns this pool's view of a catalog row.
func (m *Mempool) entry(r uint32) *poolEntry {
	return m.own.Get(r, &m.set.cat.txs.At(r).poolEntry)
}

// pooledRow returns id's catalog row if that transaction is pooled here.
func (m *Mempool) pooledRow(id hashx.Hash) (uint32, bool) {
	r := m.set.cat.txs.ID(id)
	return r, r != 0 && m.pooled.Has(r)
}

// Contains reports whether a transaction is pooled.
func (m *Mempool) Contains(id hashx.Hash) bool {
	_, ok := m.pooledRow(id)
	return ok
}

// Spends reports whether a pooled transaction already claims the output —
// the wallet-side check that keeps multiple payments in flight without
// self-conflicts (see NewPaymentAvoiding).
func (m *Mempool) Spends(op Outpoint) bool {
	id, ok := m.set.cat.lookup(op)
	return ok && m.claimed.Has(id)
}

// claimant returns the row of the pooled transaction that claims coin id:
// of the coin's spenders in the catalog, the one pooled here.
func (m *Mempool) claimant(id uint32) uint32 {
	cat := m.set.cat
	if r := cat.coins[id].spender; m.pooled.Has(r) {
		return r
	}
	for _, r := range cat.spenders[id] {
		if m.pooled.Has(r) {
			return r
		}
	}
	panic("utxo: a claimed coin has no pooled spender")
}

// Add validates tx against the UTXO set and pools it. Double spends of
// outputs already claimed by a pooled transaction are rejected — the
// first-seen rule relay nodes apply.
func (m *Mempool) Add(tx *Tx) error {
	if tx.IsCoinbase() {
		return errors.New("utxo: coinbase transactions cannot be pooled")
	}
	if m.Contains(tx.ID()) {
		return ErrPoolDup
	}
	var buf [4]uint32
	fee, ins, err := m.set.check(tx, buf[:0])
	if err != nil {
		return err
	}
	cat := m.set.cat
	for i, id := range ins {
		if m.claimed.Has(id) {
			rival := m.entry(m.claimant(id)).tx.ID()
			return fmt.Errorf("%w: %s also spent by %s", ErrPoolConflict, tx.Ins[i].Prev, rival)
		}
	}
	r := cat.row(tx)
	row := cat.txs.At(r)
	e := &row.poolEntry
	switch {
	case row.tx != tx:
		e = &poolEntry{tx: tx}
		e.price(fee)
	case !row.priced:
		e.price(fee)
		row.priced = true
	}
	m.own.Keep(r, e, &row.poolEntry)
	for _, id := range ins {
		m.claimed.Add(id)
		cat.spentBy(id, r)
	}
	if m.stale > 0 {
		m.compact()
	}
	m.order = append(m.order, r)
	m.pooled.Add(r)
	m.bytes += e.size
	return nil
}

// compact drops removed rows from the arrival list.
func (m *Mempool) compact() {
	live := m.order[:0]
	for _, r := range m.order {
		if m.pooled.Has(r) {
			live = append(live, r)
		}
	}
	m.order, m.stale = live, 0
}

// remove unlinks one pooled row.
func (m *Mempool) remove(r uint32) {
	e := m.entry(r)
	m.pooled.Remove(r)
	for _, in := range e.tx.Ins {
		id, _ := m.set.cat.lookup(in.Prev)
		m.claimed.Remove(id)
	}
	m.bytes -= e.size
	delete(m.own, r)
	m.stale++
}

// RemoveConfirmed drops transactions that were just mined, plus any pooled
// transaction that became invalid because one of its inputs is now spent.
func (m *Mempool) RemoveConfirmed(txs []*Tx) {
	if m.Len() == 0 {
		return
	}
	cat := m.set.cat
	for _, tx := range txs {
		if r, ok := m.pooledRow(tx.ID()); ok {
			m.remove(r)
		}
		// Evict pooled rivals spending the same outputs.
		for _, in := range tx.Ins {
			if id, ok := cat.lookup(in.Prev); ok && m.claimed.Has(id) {
				m.remove(m.claimant(id))
			}
		}
	}
}

// Reinject returns orphaned transactions to the pool after a reorg
// (§IV-A: "Orphaned transactions need to be included in a new block").
// Transactions that no longer validate (e.g. double-spent on the new
// branch) are silently dropped; the count of successfully reinjected
// transactions is returned.
func (m *Mempool) Reinject(txs []*Tx) int {
	n := 0
	for _, tx := range txs {
		if tx.IsCoinbase() {
			continue // orphaned block rewards simply vanish
		}
		if err := m.Add(tx); err == nil {
			n++
		}
	}
	return n
}

// Assemble selects transactions for a new block greedily by fee rate,
// earlier arrivals first among equal rates, until maxBytes of body space
// is used, and returns them with the fees they pay. Entries that no
// longer validate against the UTXO set are evicted on the way.
func (m *Mempool) Assemble(maxBytes int) ([]*Tx, uint64) {
	type candidate struct {
		rate float64
		seq  int // position in arrival order
		row  uint32
	}
	cands := make([]candidate, 0, m.Len())
	for _, r := range m.order {
		if m.pooled.Has(r) {
			cands = append(cands, candidate{rate: m.entry(r).feeRate, seq: len(cands), row: r})
		}
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		switch {
		case a.rate > b.rate:
			return -1
		case a.rate < b.rate:
			return 1
		}
		return a.seq - b.seq
	})
	var (
		out   []*Tx
		used  int
		fees  uint64
		stale []uint32
	)
	for _, c := range cands {
		e := m.entry(c.row)
		if used+e.size > maxBytes {
			continue
		}
		if _, err := m.set.CheckTx(e.tx); err != nil {
			stale = append(stale, c.row)
			continue
		}
		out = append(out, e.tx)
		used += e.size
		fees += e.fee
	}
	for _, r := range stale {
		m.remove(r)
	}
	return out, fees
}

// FeeOf returns the cached fee of a pooled transaction.
func (m *Mempool) FeeOf(id hashx.Hash) (uint64, bool) {
	r, ok := m.pooledRow(id)
	if !ok {
		return 0, false
	}
	return m.entry(r).fee, true
}
