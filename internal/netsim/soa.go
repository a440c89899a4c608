// Struct-of-arrays node state. Per-node dedup bookkeeping used to be a
// map[hashx.Hash]bool per node per concern — at mega-scale (E19 sweeps
// to 10⁵ nodes) that is hundreds of thousands of churning hash maps
// whose keys each re-hash 32-byte digests. The types below replace them
// with one pooled per-node bit matrix type, bitRows, sized once per
// network over dense ids shared by every node: membership is one bit,
// marking is one OR, and the per-node cost of a gossiped message stops
// paying map overhead entirely. The shell's block dedup and Nano's vote
// dedup are both bitRows. Ledger objects take their ids from the network
// catalog's index (internal/catalog); votes, which no catalog holds, take
// theirs from a dex. Neither matrix rotates or forgets: a row is as wide
// as the largest id seen, and a bit is cleared only when a bounded
// backlog evicts what it marked.
//
// Every structure is deterministic: ids are assigned in first-sight
// order by the (deterministic) event loop, and no iteration order ever
// escapes, so golden tables are byte-identical to the map-based code.
package netsim

import (
	"repro/internal/hashx"
	"repro/internal/keys"
)

// dex assigns dense int32 ids to keys in first-sight order. Nano's one
// dex of votes replaces a vote-keyed map per node: nodes address each
// other's bit rows through the shared id space.
type dex[K comparable] struct {
	ids map[K]int32
}

func newDex[K comparable](hint int) *dex[K] {
	return &dex[K]{ids: make(map[K]int32, hint)}
}

// id returns the dense id for k, assigning the next one on first sight.
func (d *dex[K]) id(k K) int32 {
	if id, ok := d.ids[k]; ok {
		return id
	}
	id := int32(len(d.ids))
	d.ids[k] = id
	return id
}

// voteKey identifies a vote by content — representative, candidate block
// and sequence number. Keying dedup state by this tuple replaces the
// old voteID SHA-256 digest: tuple equality IS the identity, so the
// per-message hash disappears from the gossip hot path.
type voteKey struct {
	Rep   keys.Address
	Block hashx.Hash
	Seq   uint64
}

// bitRows is a pooled per-node bit matrix: one backing []uint64 holds a
// fixed-stride row per node, so N nodes tracking M ids cost N×M bits in
// one allocation instead of N maps. The stride grows by doubling (with
// a row repack) when an id outgrows it; rows are only as wide as the
// largest id actually seen.
type bitRows struct {
	words  []uint64
	stride int // words per row
	nodes  int
}

func newBitRows(nodes, idHint int) *bitRows {
	stride := (idHint + 63) / 64
	if stride < 1 {
		stride = 1
	}
	return &bitRows{words: make([]uint64, nodes*stride), stride: stride, nodes: nodes}
}

// grow widens every row to at least wantWords words, repacking in place
// order (row i keeps its bits at the same in-row offsets).
func (r *bitRows) grow(wantWords int) {
	stride := r.stride
	for stride < wantWords {
		stride *= 2
	}
	words := make([]uint64, r.nodes*stride)
	for n := 0; n < r.nodes; n++ {
		copy(words[n*stride:n*stride+r.stride], r.words[n*r.stride:(n+1)*r.stride])
	}
	r.words, r.stride = words, stride
}

// testSet reports whether id was already set for node, setting it either
// way.
func (r *bitRows) testSet(node int, id int32) bool {
	w := int(id) / 64
	if w >= r.stride {
		r.grow(w + 1)
	}
	bit := uint64(1) << (uint(id) % 64)
	p := &r.words[node*r.stride+w]
	was := *p&bit != 0
	*p |= bit
	return was
}

// has reports whether id is set for node.
func (r *bitRows) has(node int, id int32) bool {
	w := int(id) / 64
	return w < r.stride && r.words[node*r.stride+w]&(1<<(uint(id)%64)) != 0
}

// hasID reports whether id's bit is set in words, a ledger's id set as
// the history view hands it over (attachedIDs). The test is spelled out
// here, not borrowed from the ledger's set type, so the per-send elision
// check runs in this package's frames.
func hasID(words []uint64, id int32) bool {
	w := int(id) / 64
	return w < len(words) && words[w]&(1<<(uint(id)%64)) != 0
}

// clear unsets id for node.
func (r *bitRows) clear(node int, id int32) {
	if w := int(id) / 64; w < r.stride {
		r.words[node*r.stride+w] &^= 1 << (uint(id) % 64)
	}
}
