package netsim

import (
	"testing"
)

// refGenSeen is the original per-node two-map dedup scheme, kept as the
// executable specification the bit-matrix genSeen is fuzzed against.
type refGenSeen struct {
	cur, prev map[int32]bool
	limit     int
}

func newRefGenSeen(limit int) *refGenSeen {
	return &refGenSeen{cur: make(map[int32]bool), prev: make(map[int32]bool), limit: limit}
}

func (r *refGenSeen) seen(id int32) bool { return r.cur[id] || r.prev[id] }

func (r *refGenSeen) mark(id int32) {
	if len(r.cur) >= r.limit {
		r.prev = r.cur
		r.cur = make(map[int32]bool)
	}
	r.cur[id] = true
}

func (r *refGenSeen) unmark(id int32) {
	delete(r.cur, id)
	delete(r.prev, id)
}

// FuzzGenSeen drives the bit-matrix genSeen and the two-map reference
// with the same operation stream — mark, unmark, query, across several
// nodes and a tiny rotation limit so generation rotations are frequent —
// and fails on the first divergent membership answer.
func FuzzGenSeen(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xFF, 0x80, 7, 7, 7})
	f.Add([]byte{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const nodes, limit = 3, 4
		g := newGenSeen(nodes, limit, 8)
		refs := make([]*refGenSeen, nodes)
		for i := range refs {
			refs[i] = newRefGenSeen(limit)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			node := int(ops[i]>>6) % nodes
			id := int32(ops[i+1])
			switch ops[i] & 3 {
			case 0, 1: // mark dominates, like gossip traffic
				// onVote-style guard: only unseen ids are marked.
				if !g.seen(node, id) {
					g.mark(node, id)
				}
				if !refs[node].seen(id) {
					refs[node].mark(id)
				}
			case 2:
				g.unmark(node, id)
				refs[node].unmark(id)
			}
			if got, want := g.seen(node, id), refs[node].seen(id); got != want {
				t.Fatalf("op %d: node %d id %d: genSeen=%v reference=%v", i, node, id, got, want)
			}
		}
		// Full cross-check: every (node, id) pair must agree.
		for n := 0; n < nodes; n++ {
			for id := int32(0); id < 256; id++ {
				if got, want := g.seen(n, id), refs[n].seen(id); got != want {
					t.Fatalf("final: node %d id %d: genSeen=%v reference=%v", n, id, got, want)
				}
			}
		}
	})
}

// TestBitRowsGrowRepack pins that widening the stride preserves every
// row's bits at their original in-row offsets.
func TestBitRowsGrowRepack(t *testing.T) {
	r := newBitRows(3, 8) // stride 1 word
	r.testSet(0, 5)
	r.testSet(1, 63)
	r.testSet(2, 0)
	r.testSet(1, 200) // forces a grow+repack
	for _, c := range []struct {
		node int
		id   int32
	}{{0, 5}, {1, 63}, {2, 0}, {1, 200}} {
		if !r.test(c.node, c.id) {
			t.Fatalf("bit (%d,%d) lost across grow", c.node, c.id)
		}
	}
	if r.test(0, 63) || r.test(2, 200) || r.test(1, 5) {
		t.Fatal("grow smeared bits across rows")
	}
}

// TestGenSeenRotation pins the generation-rotation boundary: the limit'th
// mark rotates first, and ids from two generations ago are forgotten.
func TestGenSeenRotation(t *testing.T) {
	g := newGenSeen(1, 2, 8)
	g.mark(0, 1)
	g.mark(0, 2) // cur full: {1,2}
	g.mark(0, 3) // rotates: prev={1,2}, cur={3}
	for _, id := range []int32{1, 2, 3} {
		if !g.seen(0, id) {
			t.Fatalf("id %d missing after first rotation", id)
		}
	}
	g.mark(0, 4) // cur={3,4}
	g.mark(0, 5) // rotates: prev={3,4}, cur={5}
	if g.seen(0, 1) || g.seen(0, 2) {
		t.Fatal("two-generations-old ids must be forgotten")
	}
	for _, id := range []int32{3, 4, 5} {
		if !g.seen(0, id) {
			t.Fatalf("id %d missing after second rotation", id)
		}
	}
}
