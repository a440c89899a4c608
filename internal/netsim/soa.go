// Struct-of-arrays node state. Per-node dedup bookkeeping used to be a
// map[hashx.Hash]bool per node per concern — at mega-scale (E19 sweeps
// to 10⁵ nodes) that is hundreds of thousands of churning hash maps
// whose keys each re-hash 32-byte digests. The types below replace them
// with pooled per-node bit matrices sized once per network over dense
// ids shared by every node: membership is one bit, marking is one OR,
// and the per-node cost of a gossiped message stops paying map overhead
// entirely. Ledger objects take their ids from the network catalog's
// index (internal/catalog); votes, which no catalog holds, take theirs
// from a dex.
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

func (r *bitRows) test(node int, id int32) bool {
	w := int(id) / 64
	if w >= r.stride {
		return false
	}
	return r.words[node*r.stride+w]&(1<<(uint(id)%64)) != 0
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

// clear unsets id for node, reporting whether it was set.
func (r *bitRows) clear(node int, id int32) bool {
	w := int(id) / 64
	if w >= r.stride {
		return false
	}
	bit := uint64(1) << (uint(id) % 64)
	p := &r.words[node*r.stride+w]
	was := *p&bit != 0
	*p &^= bit
	return was
}

// zeroRow clears every bit in node's row.
func (r *bitRows) zeroRow(node int) {
	row := r.words[node*r.stride : (node+1)*r.stride]
	for i := range row {
		row[i] = 0
	}
}

// copyRow copies src's row over dst's row (same matrix).
func (r *bitRows) copyRowTo(dst *bitRows, node int) {
	copy(dst.words[node*dst.stride:(node+1)*dst.stride], r.words[node*r.stride:(node+1)*r.stride])
}

// genSeen is the bounded two-generation dedup set in bit-matrix form,
// mirroring the old per-node seenVotes/prevSeenVotes map pair exactly:
// an id is seen if it is in the current or previous generation; marking
// past the per-node limit rotates (current becomes previous, a fresh
// generation starts), so at most 2×limit ids are held per node and an
// id forgotten after two rotations re-applies harmlessly downstream.
type genSeen struct {
	cur, prev *bitRows
	count     []int // set bits in cur, per node — the rotation trigger
	limit     int
}

func newGenSeen(nodes, limit, idHint int) *genSeen {
	return &genSeen{
		cur:   newBitRows(nodes, idHint),
		prev:  newBitRows(nodes, idHint),
		count: make([]int, nodes),
		limit: limit,
	}
}

func (g *genSeen) seen(node int, id int32) bool {
	return g.cur.test(node, id) || g.prev.test(node, id)
}

// mark records id for node, rotating generations first when the live one
// is full — the same order as the map code (rotation check precedes the
// insert), so rotation boundaries land on identical marks.
func (g *genSeen) mark(node int, id int32) {
	if g.count[node] >= g.limit {
		g.rotate(node)
	}
	if !g.cur.testSet(node, id) {
		g.count[node]++
	}
}

// unmark forgets id for node in both generations, so a rebroadcast is
// accepted again.
func (g *genSeen) unmark(node int, id int32) {
	if g.cur.clear(node, id) {
		g.count[node]--
	}
	g.prev.clear(node, id)
}

func (g *genSeen) rotate(node int) {
	if g.prev.stride < g.cur.stride {
		g.prev.grow(g.cur.stride)
	}
	g.cur.copyRowTo(g.prev, node)
	g.cur.zeroRow(node)
	g.count[node] = 0
}
