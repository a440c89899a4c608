// Package bitset is the growable set of dense catalog ids every replica
// keeps its state in: which coins are unspent, which blocks are attached,
// which transactions are pooled. The content those ids name lives in
// internal/catalog; a replica's share of it is one bit per id.
package bitset

import "math/bits"

// Set holds ids as bits, word id/64 bit id%64. The zero value is empty and
// ready to use; it grows on Add and never shrinks.
type Set []uint64

// Has reports whether id is in the set.
func (s Set) Has(id uint32) bool {
	w := int(id >> 6)
	return w < len(s) && s[w]&(1<<(id&63)) != 0
}

// Add puts id in the set, growing it to reach id's word.
func (s *Set) Add(id uint32) {
	w := int(id >> 6)
	if w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	(*s)[w] |= 1 << (id & 63)
}

// Remove takes id out of the set.
func (s Set) Remove(id uint32) {
	if w := int(id >> 6); w < len(s) {
		s[w] &^= 1 << (id & 63)
	}
}

// Count returns the number of ids in the set.
func (s Set) Count() int {
	n := 0
	for _, word := range s {
		n += bits.OnesCount64(word)
	}
	return n
}

// Each calls fn for every id in the set, in increasing order.
func (s Set) Each(fn func(id uint32)) {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			fn(uint32(w<<6 + bits.TrailingZeros64(word)))
		}
	}
}
