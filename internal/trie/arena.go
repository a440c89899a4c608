package trie

import "math"

// Node arena: slab allocation for the copy-on-write hot path. Every Put
// down a k-deep path discards-and-rebuilds k nodes; at mega scale that
// is millions of tiny heap objects per simulated block. An arena-backed
// trie batches node and byte-slice allocations into fixed-size slabs,
// turning ~one allocation per node into ~one per slab while leaving the
// structure, hashes and copy-on-write sharing untouched.
//
// Lifetime: a slab stays reachable while any node carved from it is, so
// a node a later version shadows stays allocated until every neighbour in
// its slab dies too. Nothing bounds that waste per slab: a lineage that
// keeps old versions alive (the account ledger stores every block's
// post-state) pins every slab those versions touch, dead neighbours and
// all. Copy-on-write Put copies the whole root-to-leaf path on every
// write, so dead intermediate versions are most of it — when the world
// state wrote that way, the eth-pos leg of the benchmark's
// chain-saturation workload ended with about 95 MB of dead branches
// pinned. A thawed trie (see Thaw) copies each node once per ownership
// session and rewrites it in place after that, so a block executed in one
// session leaves only its post-state's new nodes, plus whatever an
// execution that is thrown away (a proposer's build) copied. Tries whose
// old versions must be reclaimed eagerly should stay on Empty().
//
// Concurrency: an arena is shared by every trie in a lineage, and
// mutating any of them appends to the shared slabs and draws from the
// shared generation counter. Lineages rooted at EmptyArena therefore
// serialize ALL mutation across the whole family, not just per value —
// the simulated ledgers mutate single-threaded, so this costs them
// nothing. Readers of frozen tries are unaffected: only a thawed trie
// rewrites nodes, only the ones stamped with its own generation, and no
// other trie reaches those until Freeze retires the generation.

const (
	// arenaNodeChunk is the node-slab capacity. 256 branch nodes is
	// ~72KB — big enough to cut allocation counts by two orders of
	// magnitude, small enough that a mostly-dead slab is cheap.
	arenaNodeChunk = 256
	// arenaByteChunk is the byte-slab capacity for path and value
	// copies; entries larger than a quarter of it get their own
	// allocation so one oversized value cannot strand a whole slab.
	arenaByteChunk = 1 << 14
)

// arena hands out trie nodes and durable byte copies from slabs, and the
// generations Thaw stamps.
type arena struct {
	branches []branchNode
	leaves   []leafNode
	bytes    []byte
	gen      uint32 // the last generation handed out
}

// emptyValue is the shared non-nil empty value: branch/leaf values use
// nil to mean "absent", so empty stored values must stay non-nil.
var emptyValue = []byte{}

func (a *arena) newBranch() *branchNode {
	if len(a.branches) == cap(a.branches) {
		a.branches = make([]branchNode, 0, arenaNodeChunk)
	}
	a.branches = a.branches[:len(a.branches)+1]
	return &a.branches[len(a.branches)-1]
}

func (a *arena) newLeaf() *leafNode {
	if len(a.leaves) == cap(a.leaves) {
		a.leaves = make([]leafNode, 0, arenaNodeChunk)
	}
	a.leaves = a.leaves[:len(a.leaves)+1]
	return &a.leaves[len(a.leaves)-1]
}

// nextGeneration draws a generation no trie of the lineage has held.
// Wrapping would hand a retired generation to a new owner, which could
// then rewrite nodes frozen tries still reach.
func (a *arena) nextGeneration() uint32 {
	if a.gen == math.MaxUint32 {
		panic("trie: arena generations exhausted")
	}
	a.gen++
	return a.gen
}

// copyBytes returns a durable copy of b carved from the byte slab, or
// from the heap when a is nil. The three-index slice keeps later slab
// appends from aliasing the result.
func (a *arena) copyBytes(b []byte) []byte {
	if len(b) == 0 {
		return emptyValue
	}
	if a == nil || len(b) > arenaByteChunk/4 {
		out := make([]byte, len(b))
		copy(out, b)
		return out
	}
	if len(a.bytes)+len(b) > cap(a.bytes) {
		a.bytes = make([]byte, 0, arenaByteChunk)
	}
	start := len(a.bytes)
	a.bytes = append(a.bytes, b...)
	return a.bytes[start:len(a.bytes):len(a.bytes)]
}

// mkLeaf allocates a leaf stamped with owner from the arena, or the heap
// when a is nil. path and value must already be durable (arena- or
// heap-owned).
func mkLeaf(a *arena, owner uint32, path, value []byte) *leafNode {
	if a == nil {
		return &leafNode{path: path, value: value, owner: owner}
	}
	l := a.newLeaf()
	l.path, l.value, l.owner = path, value, owner
	return l
}

// mkBranch allocates a zeroed branch stamped with owner from the arena,
// or the heap when a is nil. Slab elements are born zeroed and never
// reused, so no clear is needed.
func mkBranch(a *arena, owner uint32) *branchNode {
	if a == nil {
		return &branchNode{owner: owner}
	}
	b := a.newBranch()
	b.owner = owner
	return b
}

// EmptyArena returns an empty trie whose whole derived lineage carves
// nodes and stored bytes from one shared slab arena — the allocation-
// batched variant the simulated world states run on. See the package
// notes above on lifetime and on lineage-wide mutation serialization.
func EmptyArena() *Trie { return &Trie{arena: &arena{}} }
