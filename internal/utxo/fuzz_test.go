package utxo

import (
	"errors"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/keys"
)

// fuzzReplica is one Set of a shared catalog with the naive model of what
// it should hold: history[i] is the model after i applied blocks, and
// applied[i] the block that led from history[i] to history[i+1]. A model
// is never changed once built, so replicas on a common prefix share them.
type fuzzReplica struct {
	set     *Set
	history []map[Outpoint]TxOut
	applied []*BlockBody
}

func (r *fuzzReplica) model() map[Outpoint]TxOut { return r.history[len(r.history)-1] }

// checkReplica asserts the Set agrees with its own naive model of what
// should be unspent: Len, TotalValue, the bitset's population and Get of
// every coin match a recount, and — once the owner index exists; asking
// a lazy set would build it — the per-owner slices hold exactly the
// owners' unspent coins (no strays, no repeats, no empties) and
// Balance/OutpointsOf match the recount.
func checkReplica(t *testing.T, r *fuzzReplica, owners []keys.Address) {
	t.Helper()
	s, model := r.set, r.model()
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model holds %d", s.Len(), len(model))
	}
	set := 0
	for _, word := range s.unspent {
		set += bits.OnesCount64(word)
	}
	if set != len(model) {
		t.Fatalf("%d bits set, model holds %d", set, len(model))
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
	if s.byOwner == nil {
		return
	}
	indexed := make(map[uint32]bool, len(model))
	for owner, owned := range s.byOwner {
		if len(owned) == 0 {
			t.Fatalf("owner %s keeps an empty slice", owner)
		}
		for _, id := range owned {
			if c := s.cat.coins[id]; !s.has(id) || c.Owner != owner || indexed[id] {
				t.Fatalf("owner %s indexes coin %d (%s of %s, unspent %v) or indexes it twice", owner, id, c.op, c.Owner, s.has(id))
			}
			indexed[id] = true
		}
	}
	if len(indexed) != len(model) {
		t.Fatalf("owner index holds %d coins, model %d", len(indexed), len(model))
	}
	for _, owner := range owners {
		if s.Balance(owner) != balance[owner] {
			t.Fatalf("Balance(%s) = %d, recount %d", owner, s.Balance(owner), balance[owner])
		}
		got := s.OutpointsOf(owner)
		if len(got) != held[owner] {
			t.Fatalf("OutpointsOf(%s) has %d outpoints, model %d", owner, len(got), held[owner])
		}
		for _, op := range got {
			if out, ok := model[op]; !ok || out.Owner != owner {
				t.Fatalf("OutpointsOf(%s) lists %s, which the model does not give it", owner, op)
			}
		}
	}
}

// ownedIn lists owner's outpoints in model, in a fixed order.
func ownedIn(model map[Outpoint]TxOut, owner keys.Address) []Outpoint {
	var ops []Outpoint
	for op, out := range model {
		if out.Owner == owner {
			ops = append(ops, op)
		}
	}
	sort.Slice(ops, func(i, j int) bool {
		if c := ops[i].TxID.Cmp(ops[j].TxID); c != 0 {
			return c < 0
		}
		return ops[i].Index < ops[j].Index
	})
	return ops
}

// FuzzSetOwnerIndex drives three Sets that share one coin catalog — one
// with its owner index built before the first step, two that build it
// only when the fuzzer says so — down diverging branches: block applies,
// undos, reorgs (undo several, apply a different branch), adoption of
// another replica's whole chain, and blocks that fail half way through
// and must roll back. After every step each replica is compared with its
// own naive map model, and every payment just applied is offered to all
// three: a replica accepts it exactly when its own model still holds
// every input, so a coin spent on one replica stays spendable on the
// others and a coin the catalog knows from elsewhere is still missing
// here. Each byte pair is one step; payments spend 1–3 of an owner's
// coins picked from the middle of its holdings, so the index's scan and
// swap-remove and their reversal on undo see every position.
func FuzzSetOwnerIndex(f *testing.F) {
	// op + 7*replica, arg.
	f.Add([]byte{0, 0, 7, 1, 14, 2, 1, 0, 11, 0, 0, 3, 19, 5})
	f.Add([]byte{0, 7, 7, 9, 14, 200, 2, 2, 16, 5, 13, 0, 0, 6, 8, 0, 15, 0, 4, 2})
	f.Add([]byte{0, 255, 3, 1, 7, 16, 10, 0, 16, 1, 5, 33, 20, 0, 18, 1, 12, 34, 2, 3})
	r := ring(4)
	owners := r.Addresses()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		// Every replica starts from the same mint, as the ledgers of one
		// network start from one genesis.
		genesis := &Tx{}
		genesisModel := make(map[Outpoint]TxOut)
		for i, owner := range owners {
			genesis.Outs = append(genesis.Outs, TxOut{Value: uint64(3 + i), Owner: owner}, TxOut{Value: 4, Owner: owner})
		}
		for i, out := range genesis.Outs {
			genesisModel[Outpoint{TxID: genesis.ID(), Index: uint32(i)}] = out
		}
		cat := newCatalog()
		var replicas [3]*fuzzReplica
		for i := range replicas {
			set := &Set{cat: cat}
			set.create(genesis)
			replicas[i] = &fuzzReplica{set: set, history: []map[Outpoint]TxOut{genesisModel}}
		}
		replicas[0].set.coinsOf(owners[0])
		height := uint64(0)

		// checkVerdicts offers tx to every replica: each must accept it
		// exactly when its own model holds all of tx's inputs.
		checkVerdicts := func(tx *Tx) {
			for i, rep := range replicas {
				want := true
				for _, in := range tx.Ins {
					if _, unspent := rep.model()[in.Prev]; !unspent {
						want = false
					}
				}
				_, err := rep.set.CheckTx(tx)
				if want && err != nil {
					t.Fatalf("replica %d rejects a payment of coins it holds: %v", i, err)
				}
				if !want && !errors.Is(err, ErrMissingOutput) {
					t.Fatalf("replica %d: payment of coins it lacks: err = %v", i, err)
				}
			}
		}
		// buildBlock mints to one owner and carries up to two payments of
		// coins rep holds.
		buildBlock := func(rep *fuzzReplica, arg byte) (*BlockBody, map[Outpoint]TxOut) {
			model := rep.model()
			next := make(map[Outpoint]TxOut, len(model)+4)
			for op, out := range model {
				next[op] = out
			}
			height++
			body := &BlockBody{}
			var fees uint64
			for k := 0; k < 2; k++ {
				spender := int(arg>>(2*k)) % len(owners)
				owned := ownedIn(model, owners[spender])
				if len(owned) == 0 {
					continue
				}
				tx := &Tx{}
				var in uint64
				for i := 0; i < 1+int(arg>>4)%3 && i < len(owned); i++ {
					op := owned[(int(arg)+i)%len(owned)]
					if _, unspent := next[op]; !unspent {
						continue // the block's first payment took it
					}
					tx.Ins = append(tx.Ins, TxIn{Prev: op})
					in += next[op].Value
					delete(next, op)
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
		applyBody := func(rep *fuzzReplica, body *BlockBody, next map[Outpoint]TxOut) {
			if err := rep.set.ApplyBlock(body, 8); err != nil {
				t.Fatalf("valid block rejected: %v", err)
			}
			rep.applied = append(rep.applied, body)
			rep.history = append(rep.history, next)
			for _, tx := range body.Txs[1:] {
				checkVerdicts(tx)
			}
		}
		apply := func(rep *fuzzReplica, arg byte) {
			body, next := buildBlock(rep, arg)
			applyBody(rep, body, next)
		}
		undoLast := func(rep *fuzzReplica) {
			if len(rep.applied) == 0 {
				return
			}
			rep.set.UndoBlock(rep.applied[len(rep.applied)-1])
			rep.applied = rep.applied[:len(rep.applied)-1]
			rep.history = rep.history[:len(rep.history)-1]
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, rep, arg := data[i]%7, replicas[int(data[i]/7)%len(replicas)], data[i+1]
			switch op {
			case 0:
				apply(rep, arg)
			case 1:
				undoLast(rep)
			case 2: // reorg: drop up to three blocks, adopt a two-block branch
				for k := 0; k <= int(arg)%3; k++ {
					undoLast(rep)
				}
				apply(rep, arg^0x5a)
				apply(rep, arg+1)
			case 3: // a block whose last transaction re-spends an input
				body, _ := buildBlock(rep, arg)
				if len(body.Txs) < 2 {
					continue
				}
				in := body.Txs[1].Ins[0]
				twice := &Tx{Ins: []TxIn{{Prev: in.Prev}, {Prev: in.Prev}}, Outs: []TxOut{{Owner: owners[0]}}}
				twice.SignAll(r.Pair(r.Index(rep.model()[in.Prev].Owner)))
				if _, err := rep.set.CheckTx(twice); !errors.Is(err, ErrMissingOutput) {
					t.Fatalf("one coin spent twice by one transaction: err = %v", err)
				}
				dup := &Tx{Ins: []TxIn{in}, Outs: []TxOut{{Owner: owners[0]}}}
				body.Txs = append(body.Txs, dup)
				if err := rep.set.ApplyBlock(body, 8); err == nil {
					t.Fatal("block with a double spend applied")
				}
			case 4: // reorg onto another replica's chain
				other := replicas[int(arg)%len(replicas)]
				common := 0
				for common < len(rep.applied) && common < len(other.applied) && rep.applied[common] == other.applied[common] {
					common++
				}
				for len(rep.applied) > common {
					undoLast(rep)
				}
				for k := common; k < len(other.applied); k++ {
					applyBody(rep, other.applied[k], other.history[k+1])
				}
			case 5: // a payment of a coin no transaction has created yet
				body, next := buildBlock(rep, arg)
				if len(body.Txs) < 2 {
					continue
				}
				pay := body.Txs[1]
				change := pay.Outs[1]
				early := &Tx{
					Ins:  []TxIn{{Prev: Outpoint{TxID: pay.ID(), Index: 1}}},
					Outs: []TxOut{{Value: change.Value, Owner: owners[0]}},
				}
				early.SignAll(r.Pair(r.Index(change.Owner)))
				checkVerdicts(early) // unknown to the catalog: missing everywhere
				applyBody(rep, body, next)
				checkVerdicts(early) // created on rep alone
			case 6:
				rep.set.coinsOf(owners[0])
			}
			for _, rep := range replicas {
				checkReplica(t, rep, owners)
			}
		}
		// Unwinding everything must leave nothing but the mint behind, and
		// an index built only now must agree with one kept all along.
		for _, rep := range replicas {
			for len(rep.applied) > 0 {
				undoLast(rep)
			}
			rep.set.coinsOf(owners[0])
			checkReplica(t, rep, owners)
		}
	})
}
