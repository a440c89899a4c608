// Package account implements an Ethereum-style ledger (paper §II-A,
// reference implementation #2): a transaction-based state machine whose
// world state — balances, nonces, contract code and storage — lives in a
// Merkle state trie committed to by every block header. Blocks are sized
// in gas, not bytes ("a dynamic block size not measured in bytes but
// rather in gas", §VI-A), contracts run in a small gas-metered VM, and
// historical state roots share structure in the persistent trie, which is
// exactly what makes §V-A's state-delta pruning and fast sync work.
package account

import (
	"encoding/binary"

	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/trie"
)

// Account is one entry in the world state.
type Account struct {
	Nonce   uint64
	Balance uint64
	Code    []byte
}

// IsContract reports whether the account carries code.
func (a Account) IsContract() bool { return len(a.Code) > 0 }

// appendEncode serializes an account for trie storage into buf. Hot
// callers pass a stack scratch; the trie copies what it stores.
func (a Account) appendEncode(buf []byte) []byte {
	var fixed [16]byte
	binary.BigEndian.PutUint64(fixed[0:], a.Nonce)
	binary.BigEndian.PutUint64(fixed[8:], a.Balance)
	buf = append(buf, fixed[:]...)
	return append(buf, a.Code...)
}

func decodeAccount(raw []byte) Account {
	if len(raw) < 16 {
		return Account{}
	}
	a := Account{
		Nonce:   binary.BigEndian.Uint64(raw[0:]),
		Balance: binary.BigEndian.Uint64(raw[8:]),
	}
	if len(raw) > 16 {
		a.Code = append([]byte{}, raw[16:]...)
	}
	return a
}

// Trie key prefixes: accounts and contract storage share one state trie,
// which keeps "the Merkle state tree" (§V-A) a single root per block.
const (
	accountPrefix = 0x0A
	storagePrefix = 0x0B
)

// Key buffers live on the caller's stack: the trie never retains the
// key slice (it expands keys to nibbles), so per-access heap keys were
// pure allocator churn on the state's hottest paths.

type accountKeyBuf [1 + keys.AddressSize]byte

func accountKey(buf *accountKeyBuf, addr keys.Address) []byte {
	buf[0] = accountPrefix
	copy(buf[1:], addr[:])
	return buf[:]
}

type storageKeyBuf [1 + keys.AddressSize + 8]byte

func storageKey(buf *storageKeyBuf, addr keys.Address, slot uint64) []byte {
	buf[0] = storagePrefix
	copy(buf[1:], addr[:])
	binary.BigEndian.PutUint64(buf[1+keys.AddressSize:], slot)
	return buf[:]
}

// State is a mutable view over the persistent state trie. Snapshots
// (Copy) are O(1) and historical roots remain readable — the property
// §V-A's pruning and fast sync discussions rely on. A State owns its trie
// between freezes: the first write after one thaws the trie under a fresh
// generation, and every later write rewrites in place the nodes it has
// already copied, so a block executed in one session copies each trie
// node once, not once per write. Copy, Trie and restore freeze the trie,
// so no snapshot, stored post-state or checkpoint sees a later write.
type State struct {
	t *trie.Trie
}

// NewState returns an empty world state. The trie lineage is arena-
// backed: every snapshot and checkpoint derived from it carves nodes
// from shared slabs, which cuts the per-transaction allocation count by
// an order of magnitude. Ledgers mutate state single-threaded (Copy
// checkpoints included), which is what the shared arena requires.
func NewState() *State { return &State{t: trie.EmptyArena()} }

// StateAt wraps an existing trie snapshot.
func StateAt(t *trie.Trie) *State { return &State{t: t} }

// Copy returns an independent state sharing all structure (O(1)).
func (s *State) Copy() *State { return &State{t: s.Trie()} }

// Trie returns the current underlying snapshot, frozen: the state's next
// write thaws a new trie rather than change this one.
func (s *State) Trie() *trie.Trie { return s.t.Freeze() }

// Root returns the state root committed into block headers.
func (s *State) Root() hashx.Hash { return s.t.Root() }

// GetAccount fetches an account; missing accounts read as zero.
func (s *State) GetAccount(addr keys.Address) Account {
	var kb accountKeyBuf
	raw, ok := s.t.Get(accountKey(&kb, addr))
	if !ok {
		return Account{}
	}
	return decodeAccount(raw)
}

// SetAccount stores an account. Zero-valued accounts without code are
// deleted, keeping the trie canonical.
func (s *State) SetAccount(addr keys.Address, a Account) {
	var kb accountKeyBuf
	if a.Nonce == 0 && a.Balance == 0 && len(a.Code) == 0 {
		s.t = s.t.Thaw().Delete(accountKey(&kb, addr))
		return
	}
	var vb [64]byte
	s.t = s.t.Thaw().Put(accountKey(&kb, addr), a.appendEncode(vb[:0]))
}

// Balance returns an address's balance.
func (s *State) Balance(addr keys.Address) uint64 { return s.GetAccount(addr).Balance }

// Nonce returns an address's next expected transaction nonce.
func (s *State) Nonce(addr keys.Address) uint64 { return s.GetAccount(addr).Nonce }

// AddBalance credits an account.
func (s *State) AddBalance(addr keys.Address, amount uint64) {
	a := s.GetAccount(addr)
	a.Balance += amount
	s.SetAccount(addr, a)
}

// SubBalance debits an account; the caller must have checked funds.
func (s *State) SubBalance(addr keys.Address, amount uint64) {
	a := s.GetAccount(addr)
	a.Balance -= amount
	s.SetAccount(addr, a)
}

// BumpNonce increments an account's nonce.
func (s *State) BumpNonce(addr keys.Address) {
	a := s.GetAccount(addr)
	a.Nonce++
	s.SetAccount(addr, a)
}

// GetStorage reads a contract storage slot (zero when unset).
func (s *State) GetStorage(addr keys.Address, slot uint64) uint64 {
	var kb storageKeyBuf
	raw, ok := s.t.Get(storageKey(&kb, addr, slot))
	if !ok || len(raw) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(raw)
}

// SetStorage writes a contract storage slot; zero deletes the entry.
func (s *State) SetStorage(addr keys.Address, slot, value uint64) {
	var kb storageKeyBuf
	key := storageKey(&kb, addr, slot)
	if value == 0 {
		s.t = s.t.Thaw().Delete(key)
		return
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], value)
	s.t = s.t.Thaw().Put(key, buf[:])
}

// ContractAddress derives the address of a contract created by sender at
// the given nonce, Ethereum's CREATE rule adapted to our hash.
func ContractAddress(sender keys.Address, nonce uint64) keys.Address {
	var buf [keys.AddressSize + 8]byte
	copy(buf[:], sender[:])
	binary.BigEndian.PutUint64(buf[keys.AddressSize:], nonce)
	digest := hashx.Concat([]byte("create/"), buf[:])
	var out keys.Address
	copy(out[:], digest[:keys.AddressSize])
	return out
}
