// Package catalog is the content half of the content/state split every
// ledger in this module makes. A network's replicas agree on what an
// object is — a block, a vertex, a transaction — so each object is held
// once per network, in a Catalog, under a dense id; a replica keeps only
// its own state over those ids (bitsets, id columns, counters). An
// object enters a catalog on its first attach anywhere in the network
// and never leaves, so an id stays valid in every replica's columns; a
// replica that rolls an object back clears only its own bit. An object in
// the catalog that a replica has not attached does not exist for it.
//
// An entry is a pure function of the object and its ancestry, so the
// pointer in it stands for the object at every replica of the network. A
// replica handed the same hash under another pointer validated that
// pointer, not the catalog's, and keeps it in an Own override, which
// stays nil on honest runs.
//
// Neither type is safe for concurrent use: a catalog and the replicas
// over it never leave the goroutine that drives their network, and two
// networks never share one.
package catalog

import "repro/internal/hashx"

// Catalog is an append-only table from content hash to dense id to entry.
// Ids are handed out from 1 in Add order; 0 means "none".
type Catalog[ID ~uint32, E any] struct {
	ids     map[hashx.Hash]ID
	entries []E // id -> entry; entries[0] is the zero entry
}

// New returns an empty catalog, by value so that an owner can hold it
// inline; replicas that share one hold a pointer to it.
func New[ID ~uint32, E any]() Catalog[ID, E] {
	return Catalog[ID, E]{ids: make(map[hashx.Hash]ID), entries: make([]E, 1)}
}

// ID returns the id of the object with hash h, 0 if it is not in the
// catalog.
func (c *Catalog[ID, E]) ID(h hashx.Hash) ID { return c.ids[h] }

// Add enters an object the catalog does not hold yet and returns its id.
func (c *Catalog[ID, E]) Add(h hashx.Hash, e E) ID {
	id := ID(len(c.entries))
	c.ids[h] = id
	c.entries = append(c.entries, e)
	return id
}

// At returns the entry with this id; At(0) is the zero entry. The pointer
// is valid until the next Add.
func (c *Catalog[ID, E]) At(id ID) *E { return &c.entries[id] }

// Len returns the number of objects in the catalog: ids run 1 to Len.
func (c *Catalog[ID, E]) Len() int { return len(c.entries) - 1 }

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
