package utxo

// mapMempool is the mempool as it was written before the transaction
// table: each pool its own map of entries by tx id and map of claimed
// outpoints, with an arrival counter breaking fee-rate ties. It survives
// only as the oracle FuzzMempool holds each table-backed Mempool to.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/hashx"
)

type mapPoolEntry struct {
	tx      *Tx
	id      hashx.Hash
	fee     uint64
	size    int
	seq     uint64
	feeRate float64
}

type mapMempool struct {
	set     *Set
	entries map[hashx.Hash]*mapPoolEntry
	spends  map[Outpoint]hashx.Hash
	bytes   int
	nextSeq uint64
}

func newMapMempool(set *Set) *mapMempool {
	return &mapMempool{
		set:     set,
		entries: make(map[hashx.Hash]*mapPoolEntry),
		spends:  make(map[Outpoint]hashx.Hash),
	}
}

func (m *mapMempool) Len() int { return len(m.entries) }

func (m *mapMempool) Bytes() int { return m.bytes }

func (m *mapMempool) Contains(id hashx.Hash) bool {
	_, ok := m.entries[id]
	return ok
}

func (m *mapMempool) Spends(op Outpoint) bool {
	_, ok := m.spends[op]
	return ok
}

func (m *mapMempool) Add(tx *Tx) error {
	if tx.IsCoinbase() {
		return errors.New("utxo: coinbase transactions cannot be pooled")
	}
	id := tx.ID()
	if _, dup := m.entries[id]; dup {
		return ErrPoolDup
	}
	fee, err := m.set.CheckTx(tx)
	if err != nil {
		return err
	}
	for _, in := range tx.Ins {
		if rival, clash := m.spends[in.Prev]; clash {
			return fmt.Errorf("%w: %s also spent by %s", ErrPoolConflict, in.Prev, rival)
		}
	}
	e := &mapPoolEntry{tx: tx, id: id, fee: fee, size: tx.EncodedSize(), seq: m.nextSeq}
	m.nextSeq++
	e.feeRate = float64(fee) / float64(e.size)
	m.entries[id] = e
	for _, in := range tx.Ins {
		m.spends[in.Prev] = id
	}
	m.bytes += e.size
	return nil
}

func (m *mapMempool) remove(id hashx.Hash) {
	e, ok := m.entries[id]
	if !ok {
		return
	}
	delete(m.entries, id)
	for _, in := range e.tx.Ins {
		if m.spends[in.Prev] == id {
			delete(m.spends, in.Prev)
		}
	}
	m.bytes -= e.size
}

func (m *mapMempool) RemoveConfirmed(txs []*Tx) {
	for _, tx := range txs {
		m.remove(tx.ID())
		for _, in := range tx.Ins {
			if rival, ok := m.spends[in.Prev]; ok {
				m.remove(rival)
			}
		}
	}
}

func (m *mapMempool) Reinject(txs []*Tx) int {
	n := 0
	for _, tx := range txs {
		if tx.IsCoinbase() {
			continue
		}
		if err := m.Add(tx); err == nil {
			n++
		}
	}
	return n
}

// Assemble is the old selection, and the fee total is the old BuildBlock's
// second CheckTx pass over what it selected.
func (m *mapMempool) Assemble(maxBytes int) ([]*Tx, uint64) {
	order := make([]*mapPoolEntry, 0, len(m.entries))
	for _, e := range m.entries {
		order = append(order, e)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].feeRate != order[j].feeRate {
			return order[i].feeRate > order[j].feeRate
		}
		return order[i].seq < order[j].seq
	})
	var (
		out   []*Tx
		used  int
		stale []hashx.Hash
	)
	for _, e := range order {
		if used+e.size > maxBytes {
			continue
		}
		if _, err := m.set.CheckTx(e.tx); err != nil {
			stale = append(stale, e.id)
			continue
		}
		out = append(out, e.tx)
		used += e.size
	}
	for _, id := range stale {
		m.remove(id)
	}
	var fees uint64
	for _, tx := range out {
		if fee, err := m.set.CheckTx(tx); err == nil {
			fees += fee
		}
	}
	return out, fees
}

func (m *mapMempool) FeeOf(id hashx.Hash) (uint64, bool) {
	e, ok := m.entries[id]
	if !ok {
		return 0, false
	}
	return e.fee, true
}
