// Package tangle implements the simplified leaderless cooperative DAG
// the comparison's third paradigm runs on: a tangle in the IOTA /
// Proxima family. Every transaction is its own vertex; issuing a
// payment is also the act of validating the ledger, because the new
// vertex approves two earlier vertices (its parents) and transitively
// everything in their past cone. There are no miners, no
// representatives and no elections — confirmation is cumulative
// coverage: a vertex is confirmed once enough later vertices have
// attached on top of it (its future cone reaches a weight threshold),
// the cooperative analogue of the paper's §IV confirmation-confidence
// depth rules.
//
// The ledger keeps the same struct-of-arrays shape as the other hot
// paths in this repo: vertices live in dense attachment-ordered
// columns, parents/weights/flags are parallel int32 slices, and the
// per-attach ancestor walk uses an epoch-stamped scratch column instead
// of an allocate-per-call set.
package tangle

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/backlog"
	"repro/internal/hashx"
	"repro/internal/keys"
)

// Vertex is one transaction of the tangle: a payment plus the two
// parent approvals that weave it into the DAG (§II-B's "each node holds
// a single transaction", with cooperative two-parent references instead
// of the lattice's per-account chains).
type Vertex struct {
	// Issuer is the account that created (and signed) the vertex.
	Issuer keys.Address
	// Seq is the issuer's vertex counter; it keeps the content hash of
	// otherwise-identical payments distinct.
	Seq uint64
	// ParentA and ParentB are the approved vertices. Both must already
	// be attached before this vertex can attach; they may coincide when
	// tip selection draws the same tip twice.
	ParentA hashx.Hash
	ParentB hashx.Hash
	// From/To/Amount is the settled payment.
	From   keys.Address
	To     keys.Address
	Amount uint64
	// PubKey and Sig authenticate the issuer.
	PubKey ed25519.PublicKey
	Sig    []byte

	// memoSelf/memoHash cache the content hash under the same
	// pointer-identity rule as lattice.Block: valid only while memoSelf
	// still points at this exact value, so copies silently re-hash.
	memoSelf *Vertex
	memoHash hashx.Hash

	// verified holds the signature verdict (see keys.SigMemo), seeded
	// by the issuing wallet's signature.
	verified keys.SigMemo
}

// wireSize is the modeled encoding of a vertex: issuer + seq + two
// parent references + payment + key material.
const wireSize = keys.AddressSize + 8 + 2*hashx.Size + 2*keys.AddressSize + 8 +
	ed25519.PublicKeySize + ed25519.SignatureSize

// EncodedSize returns the modeled wire size of a vertex.
func (v *Vertex) EncodedSize() int { return wireSize }

// contentBytes serializes the signed/hashed portion (everything except
// Sig and PubKey, which authenticate the content).
func (v *Vertex) contentBytes() []byte {
	buf := make([]byte, 0, wireSize)
	buf = append(buf, v.Issuer[:]...)
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], v.Seq)
	buf = append(buf, scratch[:]...)
	buf = append(buf, v.ParentA[:]...)
	buf = append(buf, v.ParentB[:]...)
	buf = append(buf, v.From[:]...)
	buf = append(buf, v.To[:]...)
	binary.BigEndian.PutUint64(scratch[:], v.Amount)
	buf = append(buf, scratch[:]...)
	return buf
}

// Hash returns the vertex identifier, memoized on first use. Not safe
// for a concurrent FIRST call on the same pointer.
func (v *Vertex) Hash() hashx.Hash {
	if v.memoSelf == v {
		return v.memoHash
	}
	v.memoHash = hashx.Sum(v.contentBytes())
	v.memoSelf = v
	return v.memoHash
}

// sign fills PubKey and Sig.
func (v *Vertex) sign(kp *keys.KeyPair) {
	v.PubKey = kp.Pub
	v.Sig = kp.SignMemo(&v.verified, v.Issuer, v.Hash())
}

// VerifySig checks the issuer signature and that PubKey matches Issuer.
// The verdict is memoized per pointer (see verified); the same *Vertex
// flooding every simulated node costs no ed25519 verification when its
// issuer signed it.
func (v *Vertex) VerifySig() bool {
	return v.verified.Verify(v.Issuer, v.Hash(), v.PubKey, v.Sig)
}

// NewVertex builds and signs a payment vertex approving the two parents.
func NewVertex(kp *keys.KeyPair, seq uint64, parentA, parentB hashx.Hash, to keys.Address, amount uint64) *Vertex {
	v := &Vertex{
		Issuer:  kp.Address(),
		Seq:     seq,
		ParentA: parentA,
		ParentB: parentB,
		From:    kp.Address(),
		To:      to,
		Amount:  amount,
	}
	v.sign(kp)
	return v
}

// Genesis builds the deterministic origin vertex every replica starts
// from: zero parents, a self-payment of the supply, confirmed at birth.
func Genesis(kp *keys.KeyPair, supply uint64) *Vertex {
	v := &Vertex{
		Issuer: kp.Address(),
		From:   kp.Address(),
		To:     kp.Address(),
		Amount: supply,
	}
	v.sign(kp)
	return v
}

// Status reports the outcome of an Attach.
type Status int

const (
	// Accepted: the vertex attached and is part of the tangle.
	Accepted Status = iota + 1
	// Duplicate: the vertex was already attached.
	Duplicate
	// GapParent: a parent is unknown; the vertex is parked until it
	// arrives (Result.Missing names the first missing parent).
	GapParent
	// Rejected: the vertex is invalid (bad signature or self-reference).
	Rejected
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Accepted:
		return "accepted"
	case Duplicate:
		return "duplicate"
	case GapParent:
		return "gap-parent"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result reports what an Attach did.
type Result struct {
	Status Status
	// Missing is the first unknown parent when Status is GapParent.
	Missing hashx.Hash
	// Drained lists parked vertices that attached because this arrival
	// filled their gap, in attach order.
	Drained []*Vertex
	// Confirmed lists vertices newly past the coverage threshold, in
	// ancestor-before-descendant order (genesis excluded — it is born
	// confirmed).
	Confirmed []hashx.Hash
}

// Tangle is one replica's view of the DAG. All columns are indexed by
// dense attachment-order ids; the id order is also a topological order,
// because a vertex only attaches once both parents have.
type Tangle struct {
	confirmWeight int32

	ids      map[hashx.Hash]int32
	vertices []*Vertex  // id → vertex, attachment order
	parents  [][2]int32 // id → parent ids (-1 for genesis)
	children []int32    // id → direct approver count (0 ⇒ tip)
	weight   []int32    // id → future-cone size while unconfirmed
	flags    []uint8    // id → confirmedFlag

	tips   []int32 // ids with children == 0
	tipPos []int32 // id → index in tips, -1 when not a tip

	// stamp/epoch is the O(1)-reset visited set for the per-attach
	// ancestor walk; stack is its reused scratch.
	stamp []uint32
	epoch uint32
	stack []int32

	confirmedCount int

	// parked holds vertices waiting for a missing parent, keyed by that
	// parent, bounded with FIFO eviction (arrival order).
	parked backlog.Buffer[hashx.Hash, *Vertex]
}

const confirmedFlag uint8 = 1

// DefaultGapLimit bounds the parked-vertex backlog.
const DefaultGapLimit = 1024

// New builds a replica seeded with the shared genesis vertex. Every
// node of a network must be constructed from the identical genesis so
// the replicas agree on the DAG's root.
func New(genesis *Vertex, confirmWeight int) (*Tangle, error) {
	if genesis == nil {
		return nil, fmt.Errorf("tangle: nil genesis")
	}
	if !genesis.VerifySig() {
		return nil, fmt.Errorf("tangle: genesis signature invalid")
	}
	if genesis.ParentA != hashx.Zero || genesis.ParentB != hashx.Zero {
		return nil, fmt.Errorf("tangle: genesis must have zero parents")
	}
	if confirmWeight < 1 {
		confirmWeight = 1
	}
	t := &Tangle{
		confirmWeight: int32(confirmWeight),
		ids:           map[hashx.Hash]int32{},
		parked:        backlog.New[hashx.Hash, *Vertex](DefaultGapLimit),
	}
	id := t.grow(genesis)
	t.parents[id] = [2]int32{-1, -1}
	t.flags[id] = confirmedFlag // born confirmed: the coverage base case
	t.confirmedCount = 1
	t.addTip(id)
	return t, nil
}

// Parked exposes the parked-vertex backlog: its count and age bounds,
// eviction hook and eviction count. Network layers bound it and hook
// evictions to clear dedup state and re-pull.
func (t *Tangle) Parked() *backlog.Buffer[hashx.Hash, *Vertex] { return &t.parked }

// grow appends one vertex to every column and returns its id.
func (t *Tangle) grow(v *Vertex) int32 {
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

// addTip registers id as a tip.
func (t *Tangle) addTip(id int32) {
	t.tipPos[id] = int32(len(t.tips))
	t.tips = append(t.tips, id)
}

// removeTip unregisters id as a tip (swap-remove; deterministic given
// deterministic attach order).
func (t *Tangle) removeTip(id int32) {
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

// Attach validates and inserts a vertex, draining any parked vertices
// the arrival unblocks and reporting newly confirmed coverage. Aged-out
// parked vertices are expired first.
func (t *Tangle) Attach(v *Vertex) Result {
	t.parked.Expire()
	res := t.attachOne(v)
	if res.Status != Accepted {
		return res
	}
	// Drain parked descendants breadth-first: each drained vertex may
	// itself unblock more.
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

// attachOne inserts a single vertex without draining.
func (t *Tangle) attachOne(v *Vertex) Result {
	h := v.Hash()
	if _, ok := t.ids[h]; ok {
		return Result{Status: Duplicate}
	}
	if v.ParentA == h || v.ParentB == h {
		return Result{Status: Rejected}
	}
	if !v.VerifySig() {
		return Result{Status: Rejected}
	}
	pa, okA := t.ids[v.ParentA]
	if !okA {
		t.park(v.ParentA, v)
		return Result{Status: GapParent, Missing: v.ParentA}
	}
	pb, okB := t.ids[v.ParentB]
	if !okB {
		t.park(v.ParentB, v)
		return Result{Status: GapParent, Missing: v.ParentB}
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
	return Result{Status: Accepted, Confirmed: t.propagate(id)}
}

// propagate walks the new vertex's past cone, incrementing cumulative
// weight on every unconfirmed ancestor, and cements the ones that cross
// the threshold. The walk is pruned at confirmed vertices — sound
// because cementing is closed over ancestry: an ancestor is always
// confirmed no later than its descendants (its future cone strictly
// contains theirs), so nothing beyond a confirmed vertex still needs
// weight.
func (t *Tangle) propagate(id int32) []hashx.Hash {
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

// cement confirms id and, first, every still-unconfirmed ancestor —
// each necessarily at or past the threshold already, since an
// unconfirmed ancestor's weight is at least its descendant's plus one.
// Output order is ancestor before descendant, the §IV coverage closure.
func (t *Tangle) cement(id int32, out *[]hashx.Hash) {
	t.flags[id] |= confirmedFlag
	for _, p := range t.parents[id] {
		if p >= 0 && t.flags[p]&confirmedFlag == 0 {
			t.cement(p, out)
		}
	}
	t.confirmedCount++
	*out = append(*out, t.vertices[id].Hash())
}

// park holds v until missing arrives, unless it already waits there.
func (t *Tangle) park(missing hashx.Hash, v *Vertex) {
	for _, w := range t.parked.Waiting(missing) {
		if w.Hash() == v.Hash() {
			return
		}
	}
	t.parked.Park(missing, v)
}

// SelectTips draws two tips uniformly (they may coincide) — the honest
// cooperative rule: approve what you currently see unapproved.
func (t *Tangle) SelectTips(rng *rand.Rand) (hashx.Hash, hashx.Hash) {
	n := len(t.tips)
	if n == 0 {
		// Unreachable in practice (genesis starts as a tip and every
		// attach leaves at least one), but keep the zero-value safe.
		g := t.vertices[0].Hash()
		return g, g
	}
	a := t.tips[rng.Intn(n)]
	b := t.tips[rng.Intn(n)]
	return t.vertices[a].Hash(), t.vertices[b].Hash()
}

// Has reports whether the vertex is attached.
func (t *Tangle) Has(h hashx.Hash) bool {
	_, ok := t.ids[h]
	return ok
}

// Get returns an attached vertex.
func (t *Tangle) Get(h hashx.Hash) (*Vertex, bool) {
	id, ok := t.ids[h]
	if !ok {
		return nil, false
	}
	return t.vertices[id], true
}

// Confirmed reports whether the vertex is attached and past the
// coverage threshold.
func (t *Tangle) Confirmed(h hashx.Hash) bool {
	id, ok := t.ids[h]
	return ok && t.flags[id]&confirmedFlag != 0
}

// Weight returns the accumulated future-cone weight of an attached
// vertex (frozen once confirmed).
func (t *Tangle) Weight(h hashx.Hash) int {
	id, ok := t.ids[h]
	if !ok {
		return 0
	}
	return int(t.weight[id])
}

// VertexCount is the number of attached vertices, genesis included.
func (t *Tangle) VertexCount() int { return len(t.vertices) }

// ConfirmedCount is the number of confirmed vertices, genesis included.
func (t *Tangle) ConfirmedCount() int { return t.confirmedCount }

// TipCount is the number of current tips.
func (t *Tangle) TipCount() int { return len(t.tips) }

// ParkedCount is the number of vertices waiting on missing parents.
func (t *Tangle) ParkedCount() int { return t.parked.Len() }

// LedgerBytes is the modeled storage footprint: §V's size axis. One
// transaction per vertex means the whole graph is payload — there is no
// block header amortization to subtract.
func (t *Tangle) LedgerBytes() int { return len(t.vertices) * wireSize }

// AllVertices returns the attachment-ordered vertex stream — a
// topological order by construction, which is what makes it servable as
// the cold-start canonical stream: a puller attaching in this order
// never gaps (modulo network reordering, which parking absorbs).
func (t *Tangle) AllVertices() []*Vertex {
	out := make([]*Vertex, len(t.vertices))
	copy(out, t.vertices)
	return out
}

// VertexAt returns the i-th vertex in attachment order.
func (t *Tangle) VertexAt(i int) *Vertex { return t.vertices[i] }
