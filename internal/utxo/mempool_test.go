package utxo

// FuzzMempool: the pools of one network share one transaction table, so a
// transaction one pool admits is a row every other pool can find by id —
// and must still treat as absent until it pools the transaction itself.
// The fuzzer puts two UTXO sets and their pools on one catalog and drives
// them apart: payments with few distinct fees (so fee rates tie), the
// same transaction offered twice and to the other pool, conflicting
// spends, forged signatures, same-id copies (honest, and with a signature
// changed after ID), blocks mined from Assemble and applied with
// RemoveConfirmed, blocks undone with Reinject, and one side's block
// applied on the other. After every step each pool is compared with its
// own naive model (mapMempool, model_test.go) on Len, Bytes, Contains,
// FeeOf and Spends; Assemble and Reinject are compared where they run.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/hashx"
)

// poolSide is one set with its pool and the model pool over the same set.
type poolSide struct {
	set     *Set
	pool    *Mempool
	model   *mapMempool
	applied []*BlockBody
}

// sameTxs compares two transaction lists pointer by pointer.
func sameTxs(a, b []*Tx) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d txs vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("tx %d: %s vs %s", i, a[i].ID(), b[i].ID())
		}
	}
	return nil
}

func FuzzMempool(f *testing.F) {
	// Pairs of (op + 9*pool, arg).
	f.Add([]byte{0, 1, 0, 2, 0, 3, 4, 40, 9, 5, 10, 0, 5, 0, 6, 0, 14, 200})
	f.Add([]byte{0, 4, 0, 36, 2, 0, 11, 1, 9, 4, 5, 1, 7, 0, 15, 0, 6, 0, 4, 255})
	f.Add([]byte{0, 0, 0, 65, 0, 130, 8, 0, 8, 1, 17, 0, 3, 1, 3, 2, 4, 9, 5, 0, 14, 30})
	f.Add([]byte{0, 5, 9, 6, 0, 7, 10, 0, 1, 1, 11, 2, 5, 3, 16, 0, 13, 4, 4, 1, 15, 0})
	// Payments of a block's outputs go stale when the block is undone and
	// Assemble evicts them; pool 1 pools a rival of pool 0's payment, so
	// the coin has two spenders, and applying pool 0's block evicts it.
	f.Add([]byte{0, 0, 5, 0, 0, 0x80, 0, 0x88, 6, 0, 4, 255, 0, 1, 14, 0, 11, 0, 10, 0, 5, 1, 16, 0})
	r := ring(4)
	owners := r.Addresses()
	f.Fuzz(func(t *testing.T, data []byte) {
		genesis := &Tx{}
		for _, owner := range owners {
			for j := 0; j < 3; j++ {
				genesis.Outs = append(genesis.Outs, TxOut{Value: uint64(20 + 4*j), Owner: owner})
			}
		}
		cat := newCatalog()
		var sides [2]*poolSide
		for i := range sides {
			set := &Set{cat: cat}
			set.create(genesis)
			sides[i] = &poolSide{set: set, pool: NewMempool(set), model: newMapMempool(set)}
		}
		// universe holds every transaction built so far, so either pool
		// can be offered the other's.
		var universe []*Tx
		height := uint64(0)

		add := func(sd *poolSide, tx *Tx) {
			got, want := sd.pool.Add(tx), sd.model.Add(tx)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Add: %v, model %v", got, want)
			}
		}
		assemble := func(sd *poolSide, budget int) ([]*Tx, uint64) {
			got, gotFees := sd.pool.Assemble(budget)
			want, wantFees := sd.model.Assemble(budget)
			if err := sameTxs(got, want); err != nil {
				t.Fatalf("Assemble(%d): %v", budget, err)
			}
			if gotFees != wantFees {
				t.Fatalf("Assemble(%d) fees %d, model %d", budget, gotFees, wantFees)
			}
			return got, gotFees
		}
		applied := func(sd *poolSide, body *BlockBody) {
			sd.applied = append(sd.applied, body)
			sd.pool.RemoveConfirmed(body.Txs)
			sd.model.RemoveConfirmed(body.Txs)
		}
		// pay spends one or two of an owner's coins unspent at sd's set;
		// fees are 0..2 and most payments have one input and one output,
		// so fee rates tie often.
		pay := func(sd *poolSide, arg byte) *Tx {
			from := int(arg) % len(owners)
			ops := sd.set.OutpointsOf(owners[from])
			if len(ops) == 0 {
				return nil
			}
			slices.SortFunc(ops, func(a, b Outpoint) int {
				if c := a.TxID.Cmp(b.TxID); c != 0 {
					return c
				}
				return int(a.Index) - int(b.Index)
			})
			tx := &Tx{}
			var in uint64
			for j := 0; j < 1+int(arg>>7) && j < len(ops); j++ {
				op := ops[(int(arg>>2)+j)%len(ops)]
				out, _ := sd.set.Get(op)
				tx.Ins = append(tx.Ins, TxIn{Prev: op})
				in += out.Value
			}
			fee := uint64(arg>>5) % 3
			if fee > in {
				fee = in
			}
			tx.Outs = []TxOut{{Value: in - fee, Owner: owners[int(arg>>3)%len(owners)]}}
			tx.SignAll(r.Pair(from))
			universe = append(universe, tx)
			return tx
		}
		pick := func(arg byte) *Tx {
			if len(universe) == 0 {
				return nil
			}
			return universe[int(arg)%len(universe)]
		}
		check := func() {
			t.Helper()
			for k, sd := range sides {
				p, m := sd.pool, sd.model
				if p.Len() != m.Len() || p.Bytes() != m.Bytes() {
					t.Fatalf("pool %d: %d txs, %d bytes; model %d, %d", k, p.Len(), p.Bytes(), m.Len(), m.Bytes())
				}
				for _, tx := range universe {
					id := tx.ID()
					pf, pok := p.FeeOf(id)
					mf, mok := m.FeeOf(id)
					if p.Contains(id) != m.Contains(id) || pf != mf || pok != mok {
						t.Fatalf("pool %d: tx %s pooled %v fee %d; model %v %d", k, id, p.Contains(id), pf, m.Contains(id), mf)
					}
				}
				for _, c := range cat.coins {
					if p.Spends(c.op) != m.Spends(c.op) {
						t.Fatalf("pool %d: Spends(%s) = %v, model %v", k, c.op, p.Spends(c.op), m.Spends(c.op))
					}
				}
			}
		}

		const maxOps = 40
		for i, ops := 0, 0; i+1 < len(data) && ops < maxOps; i, ops = i+2, ops+1 {
			sd := sides[int(data[i]/9)%len(sides)]
			arg := data[i+1]
			switch data[i] % 9 {
			case 0: // a fresh payment
				if tx := pay(sd, arg); tx != nil {
					add(sd, tx)
				}
			case 1: // any transaction built so far: duplicates, the other
				// pool's, spends this set no longer holds
				if tx := pick(arg); tx != nil {
					add(sd, tx)
				}
			case 2: // a conflicting spend of a known transaction's first input
				if u := pick(arg); u != nil {
					owner := owners[0]
					if out, ok := sd.set.Get(u.Ins[0].Prev); ok {
						owner = out.Owner
					}
					rival := &Tx{Ins: []TxIn{{Prev: u.Ins[0].Prev}}, Outs: []TxOut{{Value: 1 + uint64(arg%5), Owner: owners[int(arg)%len(owners)]}}}
					rival.SignAll(r.Pair(r.Index(owner)))
					universe = append(universe, rival)
					add(sd, rival)
				}
			case 3: // invalid: a forged signature, or a spend of no coin at all
				if u := pick(arg); u != nil && arg&1 == 0 {
					forged := &Tx{Ins: slices.Clone(u.Ins), Outs: u.Outs}
					forged.Ins[0].Sig = slices.Clone(forged.Ins[0].Sig)
					forged.Ins[0].Sig[int(arg)%len(forged.Ins[0].Sig)] ^= 0x10
					add(sd, forged)
				} else {
					ghost := &Tx{Ins: []TxIn{{Prev: Outpoint{TxID: hashx.Sum([]byte{arg}), Index: 0}}}, Outs: []TxOut{{Value: 1, Owner: owners[0]}}}
					ghost.SignAll(r.Pair(0))
					add(sd, ghost)
				}
			case 4: // select under a budget, evicting what no longer validates
				assemble(sd, 60+4*int(arg))
			case 5: // mine what the pool selects and apply it
				height++
				txs, fees := assemble(sd, 1<<20)
				body := &BlockBody{Txs: append([]*Tx{NewCoinbase(height, owners[int(arg)%len(owners)], 5+fees)}, txs...)}
				if err := sd.set.ApplyBlock(body, 5); err != nil {
					t.Fatalf("a block of the pool's selection does not apply: %v", err)
				}
				applied(sd, body)
			case 6: // undo the last block and return its transactions
				if n := len(sd.applied); n > 0 {
					body := sd.applied[n-1]
					sd.applied = sd.applied[:n-1]
					sd.set.UndoBlock(body)
					if got, want := sd.pool.Reinject(body.Txs), sd.model.Reinject(body.Txs); got != want {
						t.Fatalf("Reinject: %d, model %d", got, want)
					}
				}
			case 7: // the other side's block, if it applies here
				other := sides[1-int(data[i]/9)%len(sides)]
				if len(other.applied) > 0 {
					body := other.applied[int(arg)%len(other.applied)]
					if !slices.Contains(sd.applied, body) && sd.set.ApplyBlock(body, 5) == nil {
						applied(sd, body)
					}
				}
			case 8: // a same-id copy: honest, or its signature changed after ID
				if u := pick(arg); u != nil {
					cp := &Tx{Ins: slices.Clone(u.Ins), Outs: u.Outs}
					if cp.ID() != u.ID() {
						t.Fatal("a copy changed the id")
					}
					if arg&1 != 0 {
						cp.Ins[0].Sig = slices.Clone(cp.Ins[0].Sig)
						cp.Ins[0].Sig[0] ^= 0x01
					}
					add(sd, cp)
				}
			}
			check()
		}
	})
}
