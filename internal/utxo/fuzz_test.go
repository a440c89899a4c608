package utxo

import (
	"testing"

	"repro/internal/keys"
)

// checkOwnerIndex asserts the Set's three views of the same coins agree
// with each other and with a naive model of what should be unspent:
// every outs entry's slot points at its own coin in its owner's slice,
// the per-owner slices hold exactly the owners' outpoints (no strays,
// no empties), and Balance/TotalValue/Len/OutpointsOf match a recount.
func checkOwnerIndex(t *testing.T, s *Set, model map[Outpoint]TxOut, owners []keys.Address) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model holds %d", s.Len(), len(model))
	}
	var total uint64
	balance := make(map[keys.Address]uint64)
	held := make(map[keys.Address]int)
	for op, out := range model {
		if got, ok := s.Get(op); !ok || got != out {
			t.Fatalf("Get(%s) = %+v %v, model %+v", op, got, ok, out)
		}
		total += out.Value
		balance[out.Owner] += out.Value
		held[out.Owner]++
	}
	if s.TotalValue() != total {
		t.Fatalf("TotalValue = %d, recount %d", s.TotalValue(), total)
	}
	indexed := 0
	for owner, owned := range s.byOwner {
		if len(owned) == 0 {
			t.Fatalf("owner %s keeps an empty slice", owner)
		}
		indexed += len(owned)
	}
	if indexed != len(s.outs) {
		t.Fatalf("owner index holds %d coins, outs %d", indexed, len(s.outs))
	}
	for op, c := range s.outs {
		owned := s.byOwner[c.owner]
		if int(c.slot) >= len(owned) || owned[c.slot] != (ownedCoin{op: op, value: c.value}) {
			t.Fatalf("slot %d of %s does not point back at %s (owner holds %d)", c.slot, c.owner, op, len(owned))
		}
	}
	for _, owner := range owners {
		if s.Balance(owner) != balance[owner] {
			t.Fatalf("Balance(%s) = %d, recount %d", owner, s.Balance(owner), balance[owner])
		}
		got := s.OutpointsOf(owner)
		if len(got) != held[owner] {
			t.Fatalf("OutpointsOf(%s) has %d outpoints, model %d", owner, len(got), held[owner])
		}
		seen := make(map[Outpoint]bool, len(got))
		for _, op := range got {
			if out, ok := model[op]; !ok || out.Owner != owner || seen[op] {
				t.Fatalf("OutpointsOf(%s) lists %s, which the model does not give it once", owner, op)
			}
			seen[op] = true
		}
	}
}

// FuzzSetOwnerIndex drives a Set through fuzz-chosen block applies,
// undos, reorgs (undo several, apply a different branch) and blocks that
// fail half way through and must roll back, checking the owner index
// after every step. Each byte pair is one step; payments spend 1–3 of
// an owner's coins picked from the middle of its slice, so swap-remove
// and its restore on undo see every position.
func FuzzSetOwnerIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 0, 0, 3})
	f.Add([]byte{0, 7, 0, 9, 0, 200, 2, 2, 0, 5, 0, 6, 1, 0, 1, 0})
	f.Add([]byte{0, 255, 3, 1, 0, 16, 3, 0, 2, 1, 0, 33, 0, 34, 2, 3})
	r := ring(4)
	owners := r.Addresses()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		set := NewSet()
		// history[i] is the model after i applied blocks; undos[i] undoes
		// block i+1.
		history := []map[Outpoint]TxOut{{}}
		var undos []*Undo
		height := uint64(0)

		// buildBlock mints to one owner and carries up to two payments.
		buildBlock := func(arg byte) (*BlockBody, map[Outpoint]TxOut) {
			model := history[len(history)-1]
			next := make(map[Outpoint]TxOut, len(model)+4)
			for op, out := range model {
				next[op] = out
			}
			height++
			body := &BlockBody{}
			var fees uint64
			for k := 0; k < 2; k++ {
				spender := int(arg>>(2*k)) % len(owners)
				owned := set.byOwner[owners[spender]]
				if len(owned) == 0 {
					continue
				}
				tx := &Tx{}
				var in uint64
				for i := 0; i < 1+int(arg>>4)%3 && i < len(owned); i++ {
					c := owned[(int(arg)+i)%len(owned)]
					if _, unspent := next[c.op]; !unspent {
						continue // the block's first payment took it
					}
					tx.Ins = append(tx.Ins, TxIn{Prev: c.op})
					delete(next, c.op)
					in += c.value
				}
				if len(tx.Ins) == 0 {
					continue
				}
				// Two outputs, the second possibly worth nothing, and a
				// one-unit fee when there is value to pay it from.
				fee := in % 2
				first := (in - fee) / 2
				tx.Outs = []TxOut{
					{Value: first, Owner: owners[int(arg>>1)%len(owners)]},
					{Value: in - fee - first, Owner: owners[spender]},
				}
				tx.SignAll(r.Pair(spender))
				fees += fee
				id := tx.ID()
				for i, out := range tx.Outs {
					next[Outpoint{TxID: id, Index: uint32(i)}] = out
				}
				body.Txs = append(body.Txs, tx)
			}
			coinbase := NewCoinbase(height, owners[int(arg)%len(owners)], uint64(arg%8)+fees)
			next[Outpoint{TxID: coinbase.ID(), Index: 0}] = coinbase.Outs[0]
			body.Txs = append([]*Tx{coinbase}, body.Txs...)
			return body, next
		}
		apply := func(arg byte) {
			body, next := buildBlock(arg)
			undo, err := set.ApplyBlock(body, 8)
			if err != nil {
				t.Fatalf("valid block rejected: %v", err)
			}
			undos = append(undos, undo)
			history = append(history, next)
		}
		undoLast := func() {
			if len(undos) == 0 {
				return
			}
			set.UndoBlock(undos[len(undos)-1])
			undos = undos[:len(undos)-1]
			history = history[:len(history)-1]
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%4, data[i+1]
			switch op {
			case 0:
				apply(arg)
			case 1:
				undoLast()
			case 2: // reorg: drop up to three blocks, adopt a two-block branch
				for k := 0; k <= int(arg)%3; k++ {
					undoLast()
				}
				apply(arg ^ 0x5a)
				apply(arg + 1)
			case 3: // a block whose last transaction re-spends an input
				body, _ := buildBlock(arg)
				if len(body.Txs) < 2 {
					continue
				}
				dup := &Tx{Ins: body.Txs[1].Ins[:1], Outs: []TxOut{{Owner: owners[0]}}}
				body.Txs = append(body.Txs, dup)
				if _, err := set.ApplyBlock(body, 8); err == nil {
					t.Fatal("block with a double spend applied")
				}
			}
			checkOwnerIndex(t, set, history[len(history)-1], owners)
		}
		// Unwinding everything must leave nothing behind.
		for len(undos) > 0 {
			undoLast()
		}
		checkOwnerIndex(t, set, history[0], owners)
	})
}
