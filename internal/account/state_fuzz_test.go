package account

// Fuzz oracle for the owned state trie: a byte-coded program of writes
// (SetAccount, AddBalance, SubBalance, BumpNonce, SetStorage with zero
// included, so Delete runs), Copy, Trie(), Root() mid-stream, restores to
// any earlier checkpoint and writes to the checkpoints themselves runs on
// one State. A map model is the reference, its root rebuilt by
// trie.FromItems on a heap trie. After every step every snapshot taken so
// far must keep the Root and Items it had when taken, every checkpoint
// must still equal its own model, and the live state must equal its model.
// A snapshot that is not frozen, a generation drawn twice, a value
// rewritten in its shared bytes or a stale memo on an in-place write is a
// divergence.

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/trie"
)

const (
	fuzzAddrs       = 8
	fuzzSlots       = 4
	fuzzSnapshots   = 24
	fuzzCheckpoints = 8
)

// fuzzAddr returns address i of a population whose addresses share long
// prefixes in pairs and quads, so keys split deep in the trie and sit
// below chains of single-child branches.
func fuzzAddr(i int) keys.Address {
	var a keys.Address
	a[0] = byte(i & 1)
	a[7] = byte(i >> 1 & 1)
	a[keys.AddressSize-1] = byte(i >> 2)
	return a
}

// stateModel maps trie keys to stored values: the state without a trie.
type stateModel map[string]string

func (m stateModel) account(addr keys.Address) Account {
	var kb accountKeyBuf
	return decodeAccount([]byte(m[string(accountKey(&kb, addr))]))
}

func (m stateModel) setAccount(addr keys.Address, a Account) {
	var kb accountKeyBuf
	k := string(accountKey(&kb, addr))
	if a.Nonce == 0 && a.Balance == 0 && len(a.Code) == 0 {
		delete(m, k)
		return
	}
	m[k] = string(a.appendEncode(nil))
}

func (m stateModel) setStorage(addr keys.Address, slot, value uint64) {
	var kb storageKeyBuf
	k := string(storageKey(&kb, addr, slot))
	if value == 0 {
		delete(m, k)
		return
	}
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(value >> (56 - 8*i))
	}
	m[k] = string(buf[:])
}

func (m stateModel) items() []trie.KV {
	out := make([]trie.KV, 0, len(m))
	for k, v := range m {
		out = append(out, trie.KV{Key: []byte(k), Value: []byte(v)})
	}
	slices.SortFunc(out, func(a, b trie.KV) int { return bytes.Compare(a.Key, b.Key) })
	return out
}

func (m stateModel) root() hashx.Hash { return trie.FromItems(m.items()).Root() }

// stateWrite applies write kind (0–4) to st and to its model m. a picks
// the address and amount, b the rest.
func stateWrite(st *State, m stateModel, kind, a, b byte) string {
	addr := fuzzAddr(int(a % fuzzAddrs))
	amount := uint64(a / fuzzAddrs)
	switch kind % 5 {
	case 0:
		acct := Account{Nonce: uint64(b & 1), Balance: amount}
		if b&2 != 0 {
			acct.Code = bytes.Repeat([]byte{OpStop}, 1+int(b>>2&3))
		}
		st.SetAccount(addr, acct)
		m.setAccount(addr, acct)
		return fmt.Sprintf("SetAccount(%d, %+v)", a%fuzzAddrs, acct)
	case 1:
		st.AddBalance(addr, amount)
		acct := m.account(addr)
		acct.Balance += amount
		m.setAccount(addr, acct)
		return fmt.Sprintf("AddBalance(%d, %d)", a%fuzzAddrs, amount)
	case 2:
		acct := m.account(addr)
		amount = min(amount, acct.Balance)
		st.SubBalance(addr, amount)
		acct.Balance -= amount
		m.setAccount(addr, acct)
		return fmt.Sprintf("SubBalance(%d, %d)", a%fuzzAddrs, amount)
	case 3:
		st.BumpNonce(addr)
		acct := m.account(addr)
		acct.Nonce++
		m.setAccount(addr, acct)
		return fmt.Sprintf("BumpNonce(%d)", a%fuzzAddrs)
	default:
		slot, value := uint64(b%fuzzSlots), uint64(b/fuzzSlots%8)
		st.SetStorage(addr, slot, value)
		m.setStorage(addr, slot, value)
		return fmt.Sprintf("SetStorage(%d, %d, %d)", a%fuzzAddrs, slot, value)
	}
}

// deepItems copies an enumeration, values included: Items aliases the
// stored value bytes, which is what an in-place overwrite would corrupt.
func deepItems(t *trie.Trie) []trie.KV {
	items := t.Items()
	for i := range items {
		items[i].Value = bytes.Clone(items[i].Value)
	}
	return items
}

func itemsEqual(a, b []trie.KV) bool {
	return slices.EqualFunc(a, b, func(x, y trie.KV) bool {
		return bytes.Equal(x.Key, y.Key) && bytes.Equal(x.Value, y.Value)
	})
}

func FuzzStateSnapshots(f *testing.F) {
	// Two ops a step: op%10 picks the step, op/10 and the arg byte its
	// operands. A snapshot, then writes to the keys it holds.
	f.Add([]byte{0x00, 0x18, 0x01, 0x09, 0x06, 0x00, 0x01, 0x08, 0x01, 0x09, 0x07, 0x00, 0x05, 0x00, 0x01, 0x10, 0x03, 0x00})
	// A split copies a frozen leaf; the copy is then overwritten.
	f.Add([]byte{0x00, 0x18, 0x06, 0x00, 0x00, 0x1a, 0x01, 0x08, 0x07, 0x00, 0x02, 0x08})
	// Storage slots set and cleared around Copy, Root and Trie.
	f.Add([]byte{0x36, 0x03, 0x7c, 0x03, 0x05, 0x00, 0x5e, 0x03, 0x07, 0x00, 0x04, 0x03, 0x06, 0x00, 0x36, 0x03})
	// A checkpoint written after it was taken, then restored into.
	f.Add([]byte{0x00, 0x18, 0x05, 0x00, 0x09, 0x40, 0x08, 0x00, 0x01, 0x08, 0x07, 0x00})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			t.Skip("longer programs only slow the checks")
		}
		live, model := NewState(), stateModel{}
		type snapshot struct {
			t     *trie.Trie
			root  hashx.Hash
			items []trie.KV
		}
		type checkpoint struct {
			st *State
			m  stateModel
		}
		var snaps []snapshot
		var cps []checkpoint
		record := func(tr *trie.Trie) {
			if len(snaps) < fuzzSnapshots {
				snaps = append(snaps, snapshot{t: tr, root: tr.Root(), items: deepItems(tr)})
			}
		}

		check := func(step int, what string) {
			t.Helper()
			for i, s := range snaps {
				if s.t.Root() != s.root || !itemsEqual(s.t.Items(), s.items) {
					t.Fatalf("after op %d (%s): snapshot %d changed", step, what, i)
				}
			}
			for i, cp := range cps {
				if !itemsEqual(cp.st.t.Items(), cp.m.items()) || cp.st.Root() != cp.m.root() {
					t.Fatalf("after op %d (%s): checkpoint %d diverged from its model", step, what, i)
				}
			}
			if !itemsEqual(live.t.Items(), model.items()) {
				t.Fatalf("after op %d (%s): live items diverged from the model", step, what)
			}
			if got, want := live.Root(), model.root(); got != want {
				t.Fatalf("after op %d (%s): live root %v, model %v", step, what, got, want)
			}
		}

		for i := 0; i < len(ops); i += 2 {
			op, arg := ops[i], byte(0)
			if i+1 < len(ops) {
				arg = ops[i+1]
			}
			var what string
			switch op % 10 {
			case 0, 1, 2, 3, 4:
				what = stateWrite(live, model, op%10, arg, op/10)
			case 5:
				what = "Copy"
				c := live.Copy()
				record(c.t)
				if len(cps) < fuzzCheckpoints {
					cps = append(cps, checkpoint{st: c, m: maps.Clone(model)})
				}
			case 6:
				what = "Trie"
				record(live.Trie())
			case 7:
				what = "Root"
				if got, want := live.Root(), model.root(); got != want {
					t.Fatalf("op %d: mid-stream root %v, model %v", i, got, want)
				}
			case 8:
				if len(cps) == 0 {
					continue
				}
				k := int(arg) % len(cps)
				what = fmt.Sprintf("restore %d", k)
				live.restore(cps[k].st)
				model = maps.Clone(cps[k].m)
			case 9:
				// A checkpoint is a State too; writing one must not reach
				// the live state it was taken from or restored into.
				if len(cps) == 0 {
					continue
				}
				k := int(arg) % len(cps)
				what = fmt.Sprintf("checkpoint %d: %s", k, stateWrite(cps[k].st, cps[k].m, op/10, arg/fuzzCheckpoints, op/50))
			}
			check(i, what)
		}
	})
}
