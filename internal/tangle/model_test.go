package tangle

// mapTangle is the replica as it was written before the catalog split:
// every replica its own hash → id map and its own vertex and parent
// columns beside its weights, flags and tips. It survives only as the
// oracle FuzzTangleReplicas holds each catalog-backed Tangle to.

import (
	"math/rand"

	"repro/internal/backlog"
	"repro/internal/hashx"
)

// mapResult is Result with confirmations reported as hashes.
type mapResult struct {
	Status    Status
	Missing   hashx.Hash
	Drained   []*Vertex
	Confirmed []hashx.Hash
}

type mapTangle struct {
	confirmWeight int32

	ids      map[hashx.Hash]int32
	vertices []*Vertex
	parents  [][2]int32
	children []int32
	weight   []int32
	flags    []uint8

	tips   []int32
	tipPos []int32

	stamp []uint32
	epoch uint32
	stack []int32

	confirmedCount int

	parked backlog.Buffer[hashx.Hash, *Vertex]
}

const confirmedFlag uint8 = 1

func newMapTangle(genesis *Vertex, confirmWeight int) *mapTangle {
	if confirmWeight < 1 {
		confirmWeight = 1
	}
	t := &mapTangle{
		confirmWeight: int32(confirmWeight),
		ids:           map[hashx.Hash]int32{},
		parked:        backlog.New[hashx.Hash, *Vertex](DefaultGapLimit),
	}
	id := t.grow(genesis)
	t.flags[id] = confirmedFlag
	t.confirmedCount = 1
	t.addTip(id)
	return t
}

func (t *mapTangle) grow(v *Vertex) int32 {
	id := int32(len(t.vertices))
	t.ids[v.Hash()] = id
	t.vertices = append(t.vertices, v)
	t.parents = append(t.parents, [2]int32{-1, -1})
	t.children = append(t.children, 0)
	t.weight = append(t.weight, 0)
	t.flags = append(t.flags, 0)
	t.tipPos = append(t.tipPos, -1)
	t.stamp = append(t.stamp, 0)
	return id
}

func (t *mapTangle) addTip(id int32) {
	t.tipPos[id] = int32(len(t.tips))
	t.tips = append(t.tips, id)
}

func (t *mapTangle) removeTip(id int32) {
	pos := t.tipPos[id]
	if pos < 0 {
		return
	}
	last := t.tips[len(t.tips)-1]
	t.tips[pos] = last
	t.tipPos[last] = pos
	t.tips = t.tips[:len(t.tips)-1]
	t.tipPos[id] = -1
}

func (t *mapTangle) Attach(v *Vertex) mapResult {
	t.parked.Expire()
	res := t.attachOne(v)
	if res.Status != Accepted {
		return res
	}
	queue := []hashx.Hash{v.Hash()}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for _, w := range t.parked.Take(h) {
			sub := t.attachOne(w)
			if sub.Status != Accepted {
				continue
			}
			res.Drained = append(res.Drained, w)
			res.Confirmed = append(res.Confirmed, sub.Confirmed...)
			queue = append(queue, w.Hash())
		}
	}
	return res
}

func (t *mapTangle) attachOne(v *Vertex) mapResult {
	h := v.Hash()
	if _, ok := t.ids[h]; ok {
		return mapResult{Status: Duplicate}
	}
	if v.ParentA == h || v.ParentB == h {
		return mapResult{Status: Rejected}
	}
	if !v.VerifySig() {
		return mapResult{Status: Rejected}
	}
	pa, okA := t.ids[v.ParentA]
	if !okA {
		t.park(v.ParentA, v)
		return mapResult{Status: GapParent, Missing: v.ParentA}
	}
	pb, okB := t.ids[v.ParentB]
	if !okB {
		t.park(v.ParentB, v)
		return mapResult{Status: GapParent, Missing: v.ParentB}
	}
	id := t.grow(v)
	t.parents[id] = [2]int32{pa, pb}
	t.children[pa]++
	t.removeTip(pa)
	if pb != pa {
		t.children[pb]++
		t.removeTip(pb)
	}
	t.addTip(id)
	return mapResult{Status: Accepted, Confirmed: t.propagate(id)}
}

func (t *mapTangle) propagate(id int32) []hashx.Hash {
	t.epoch++
	var newly []hashx.Hash
	t.stack = append(t.stack[:0], t.parents[id][0], t.parents[id][1])
	for len(t.stack) > 0 {
		u := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if u < 0 || t.flags[u]&confirmedFlag != 0 || t.stamp[u] == t.epoch {
			continue
		}
		t.stamp[u] = t.epoch
		t.weight[u]++
		if t.weight[u] >= t.confirmWeight {
			t.cement(u, &newly)
			continue
		}
		t.stack = append(t.stack, t.parents[u][0], t.parents[u][1])
	}
	return newly
}

func (t *mapTangle) cement(id int32, out *[]hashx.Hash) {
	t.flags[id] |= confirmedFlag
	for _, p := range t.parents[id] {
		if p >= 0 && t.flags[p]&confirmedFlag == 0 {
			t.cement(p, out)
		}
	}
	t.confirmedCount++
	*out = append(*out, t.vertices[id].Hash())
}

func (t *mapTangle) park(missing hashx.Hash, v *Vertex) {
	for _, w := range t.parked.Waiting(missing) {
		if w.Hash() == v.Hash() {
			return
		}
	}
	t.parked.Park(missing, v)
}

func (t *mapTangle) SelectTips(rng *rand.Rand) (hashx.Hash, hashx.Hash) {
	n := len(t.tips)
	if n == 0 {
		g := t.vertices[0].Hash()
		return g, g
	}
	a := t.tips[rng.Intn(n)]
	b := t.tips[rng.Intn(n)]
	return t.vertices[a].Hash(), t.vertices[b].Hash()
}

func (t *mapTangle) Has(h hashx.Hash) bool {
	_, ok := t.ids[h]
	return ok
}

func (t *mapTangle) Get(h hashx.Hash) (*Vertex, bool) {
	id, ok := t.ids[h]
	if !ok {
		return nil, false
	}
	return t.vertices[id], true
}

func (t *mapTangle) Confirmed(h hashx.Hash) bool {
	id, ok := t.ids[h]
	return ok && t.flags[id]&confirmedFlag != 0
}

func (t *mapTangle) Weight(h hashx.Hash) int {
	id, ok := t.ids[h]
	if !ok {
		return 0
	}
	return int(t.weight[id])
}

func (t *mapTangle) VertexCount() int { return len(t.vertices) }

func (t *mapTangle) ConfirmedCount() int { return t.confirmedCount }

func (t *mapTangle) TipCount() int { return len(t.tips) }

func (t *mapTangle) ParkedCount() int { return t.parked.Len() }

func (t *mapTangle) AllVertices() []*Vertex {
	out := make([]*Vertex, len(t.vertices))
	copy(out, t.vertices)
	return out
}
