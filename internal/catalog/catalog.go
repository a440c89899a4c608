// Package catalog is the content half of the content/state split every
// ledger in this module makes. A network's replicas agree on what an
// object is — a block, a vertex, a transaction — so each object is held
// once per network, in a Catalog, under a dense id; a replica keeps only
// its own state over those ids (bitsets, id columns, counters).
//
// An object gets its id at first sight and its entry at first attach. A
// catalog draws ids from its Index in first-sight order, and a network
// layer that numbers what it sees through that index shares the id space.
// The entry is filled on the object's first attach anywhere in the
// network and never leaves, so an id stays valid in every replica's
// columns; a replica that rolls an object back clears only its own bit.
// Until then ID reads 0: a forged or never-attached object holds an id
// and nothing else. An object a replica has not attached does not exist
// for it.
//
// An entry is a pure function of the object and its ancestry, so the
// pointer in it stands for the object at every replica of the network. A
// replica handed the same hash under another pointer validated that
// pointer, not the catalog's, and keeps it in an Own override, which
// stays nil on honest runs.
//
// An object may also carry a Memo of its id in one index, so that a
// network that hands the same pointer to every node probes its index once
// per object rather than once per delivery. The memo is a cache, not
// state: an id is a function of the hash and the index, a memo answers
// only for the index that wrote it and only at the address it was written
// at, and a miss costs the probe it saves.
//
// No type here is safe for concurrent use: an index, its catalog and the
// replicas over them never leave the goroutine that drives their
// network, and two networks never share one.
package catalog

import (
	"repro/internal/bitset"
	"repro/internal/hashx"
)

// Index is a network's one hash → id map. Ids run from 1 in first-sight
// order; 0 means "none".
type Index struct {
	ids map[hashx.Hash]uint32
}

// Intern returns h's id, handing out the next one if h is new.
func (x *Index) Intern(h hashx.Hash) uint32 {
	if id, ok := x.ids[h]; ok {
		return id
	}
	id := uint32(len(x.ids)) + 1
	x.ids[h] = id
	return id
}

// Memo is one object's id in one index, cached on the object: the object
// holds it by value, as an unexported field beside its content hash memo,
// and hands it to InternMemo or Catalog.Lookup with that hash. It follows
// the hash memo's self-pointer rule: it is honoured only while it still
// lives at the address it was written at, so a value copy — and so a copy
// mutated after copying — never reads its original's id, and only for
// the index that wrote it, so the same object in another network probes
// that network's index. The zero value is empty.
type Memo struct {
	self  *Memo
	index *Index
	id    uint32
}

// in returns the id m holds in x, 0 if it holds none.
func (m *Memo) in(x *Index) uint32 {
	if m.self != m || m.index != x {
		return 0
	}
	return m.id
}

// set binds m, at its own address, to id in x.
func (m *Memo) set(x *Index, id uint32) { *m = Memo{self: m, index: x, id: id} }

// InternMemo returns Intern(h), reading it from m when m holds h's id in
// x and writing it there when not. h is the content hash of the object m
// lives in.
func (x *Index) InternMemo(m *Memo, h hashx.Hash) uint32 {
	if id := m.in(x); id != 0 {
		return id
	}
	id := x.Intern(h)
	m.set(x, id)
	return id
}

// Catalog is an append-only table from content hash to dense id to entry,
// its ids drawn from an Index.
type Catalog[ID ~uint32, E any] struct {
	index   *Index
	filled  bitset.Set // ids whose entry Add has written
	entries []E        // id -> entry; the zero entry at 0 and unfilled ids
}

// New returns an empty catalog over an index of its own, by value so that
// an owner can hold it inline; replicas that share one hold a pointer to
// it.
func New[ID ~uint32, E any]() Catalog[ID, E] {
	return Catalog[ID, E]{index: &Index{ids: make(map[hashx.Hash]uint32)}, entries: make([]E, 1)}
}

// Index returns the index the catalog draws its ids from.
func (c *Catalog[ID, E]) Index() *Index { return c.index }

// ID returns the id of the object with hash h, 0 if its entry is not
// filled.
func (c *Catalog[ID, E]) ID(h hashx.Hash) ID {
	id := c.index.ids[h]
	if !c.filled.Has(id) {
		return 0
	}
	return ID(id)
}

// Lookup returns the index id of the object that carries memo m and
// hashes to h, 0 if the index has handed it none, and the entry under
// that id, the zero entry until Add fills it. The id is read from m when
// m holds one for this catalog's index, and probed otherwise, a found one
// then written to m. Like ID it hands out no id. It tests no filled bit:
// a caller whose filled entries are never zero reads fill from the entry
// it is about to use. The pointer is valid until the next Add.
func (c *Catalog[ID, E]) Lookup(m *Memo, h hashx.Hash) (ID, *E) {
	id := m.in(c.index)
	if id == 0 {
		if id = c.index.ids[h]; id != 0 {
			m.set(c.index, id)
		}
	}
	if int(id) >= len(c.entries) {
		return ID(id), &c.entries[0]
	}
	return ID(id), &c.entries[id]
}

// Add fills the entry of an object the catalog does not hold yet, under
// the id its index has handed h or hands it now, and returns that id.
func (c *Catalog[ID, E]) Add(h hashx.Hash, e E) ID {
	id := c.index.Intern(h)
	for int(id) >= len(c.entries) {
		var zero E
		c.entries = append(c.entries, zero)
	}
	c.entries[id] = e
	c.filled.Add(id)
	return ID(id)
}

// At returns the entry with this id, 0 or one ID or Add returned; At(0)
// is the zero entry. The pointer is valid until the next Add.
func (c *Catalog[ID, E]) At(id ID) *E { return &c.entries[id] }

// Own is one replica's pointer overrides over a catalog: for an id whose
// catalog entry holds another pointer than the one this replica
// validated, the replica's own. The zero value is nil and allocates on
// the first differing Keep.
type Own[ID ~uint32, P comparable] map[ID]P

// Keep records mine as this replica's pointer for id, unless it is the
// catalog's shared one.
func (o *Own[ID, P]) Keep(id ID, mine, shared P) {
	if mine == shared {
		return
	}
	if *o == nil {
		*o = make(Own[ID, P])
	}
	(*o)[id] = mine
}

// Get returns this replica's pointer for id: its override if it keeps
// one, shared otherwise.
func (o Own[ID, P]) Get(id ID, shared P) P {
	if p, ok := o[id]; ok {
		return p
	}
	return shared
}
