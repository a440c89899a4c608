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
// Content is separate from state (see internal/catalog). Every vertex the
// replicas of one network attach enters one catalog, whose entry holds
// the *Vertex and its two parent ids. A replica (New, or Replica of
// another) holds only its state over those ids: attached and confirmed
// bitsets, its attach-order id list, one slot column of coverage weight,
// tip position and walk stamp, its tip list and its parked backlog. The
// per-attach ancestor walk uses the epoch-stamped slots instead of an
// allocate-per-call set.
package tangle

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/backlog"
	"repro/internal/bitset"
	"repro/internal/catalog"
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
	// PubKey and the signature (Sig) authenticate the issuer.
	PubKey ed25519.PublicKey
	sig    []byte

	// memoSelf/memoHash cache the content hash under the same
	// pointer-identity rule as lattice.Block: valid only while memoSelf
	// still points at this exact value, so copies silently re-hash.
	memoSelf *Vertex
	memoHash hashx.Hash
	// idMemo caches the vertex's id in its network's catalog index (see
	// catalog.Memo); it sits beside the hash memo, whose cache line an id
	// read has already loaded.
	idMemo catalog.Memo

	// verified holds the signature verdict and how to make the bytes
	// (see keys.SigMemo), bound by the issuing wallet's signature.
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

// contentHash hashes the content, out of line so that Hash's memo read
// inlines.
func (v *Vertex) contentHash() hashx.Hash { return hashx.Sum(v.contentBytes()) }

// Hash returns the vertex identifier, memoized on first use. Not safe
// for a concurrent FIRST call on the same pointer.
func (v *Vertex) Hash() hashx.Hash {
	if v.memoSelf != v {
		v.memoHash, v.memoSelf = v.contentHash(), v
	}
	return v.memoHash
}

// IDIn returns the vertex's id in the catalog index x, handing one out at
// first sight, from its memo after the first call with x.
func (v *Vertex) IDIn(x *catalog.Index) uint32 { return x.InternMemo(&v.idMemo, v.Hash()) }

// sign fills PubKey and the signature, whose bytes are made on first
// read.
func (v *Vertex) sign(kp *keys.KeyPair) {
	v.PubKey, v.sig = kp.Pub, nil
	kp.SignMemo(&v.verified, v.Issuer, v.Hash())
}

// Sig returns the issuer's signature over Hash(), making it on the
// first call. Like Hash, not safe for a concurrent FIRST call on the
// same pointer.
func (v *Vertex) Sig() []byte { return v.verified.Sig(&v.sig) }

// WithSig returns a copy of v carrying sig and no verdict, which
// therefore verifies in full.
func (v *Vertex) WithSig(sig []byte) *Vertex {
	cp := *v
	cp.sig, cp.verified = sig, keys.SigMemo{}
	return &cp
}

// VerifySig checks the issuer signature and that PubKey matches Issuer.
// The verdict is memoized per pointer (see verified); the same *Vertex
// flooding every simulated node costs no ed25519 verification when its
// issuer signed it.
func (v *Vertex) VerifySig() bool {
	return v.verified.Verify(v.Issuer, v.Hash(), v.PubKey, &v.sig)
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
	// filled their gap, in attach order. Confirmed lists the catalog ids
	// of vertices newly past the coverage threshold, in
	// ancestor-before-descendant order (genesis excluded — it is born
	// confirmed); HashOf resolves them.
	//
	// Both are buffers the replica owns and refills: they stay valid
	// until the next Attach on the same replica, so a caller that keeps
	// them longer copies them.
	Drained   []*Vertex
	Confirmed []VertexID
}

// VertexID is a vertex's dense id in the catalog the replicas of its
// network share. The catalog's index hands ids out in first-sight order
// across the network (see internal/catalog), which need not be
// topological: a vertex can be seen before its parents. A replica's
// attach order (order) is. The genesis is 1 and 0 means no vertex.
type VertexID uint32

const genesisID VertexID = 1

// catEntry is one catalogued vertex and its parents' ids (0 for the
// genesis).
type catEntry struct {
	vertex  *Vertex
	parents [2]VertexID
}

// Tangle is one replica's view of its network's DAG: which catalog
// vertices it has attached, in which order, and the coverage it has
// counted on them. A vertex in the catalog that this replica has not
// attached does not exist for it.
type Tangle struct {
	cat           *catalog.Catalog[VertexID, catEntry]
	confirmWeight int32

	attached  bitset.Set
	confirmed bitset.Set
	order     []VertexID // attach order here: a topological order
	slots     []slot     // catalog id → this replica's state for it
	// own holds the vertices this replica verified under another pointer
	// than the catalog's: the ones it serves.
	own catalog.Own[VertexID, *Vertex]

	tips []VertexID // attached ids nothing here approves yet

	// epoch is the O(1)-reset visited mark for the per-attach ancestor
	// walk (slot.stamp); stack is its reused scratch.
	epoch uint32
	stack []VertexID

	// confirmedBuf, drainedBuf and queue are Attach's reused output
	// buffers (Result) and its drain's breadth-first queue.
	confirmedBuf []VertexID
	drainedBuf   []*Vertex
	queue        []hashx.Hash

	confirmedCount int

	// parked holds vertices waiting for a missing parent, keyed by that
	// parent, bounded with FIFO eviction (arrival order).
	parked backlog.Buffer[hashx.Hash, *Vertex]
}

// slot is a replica's state for one attached vertex.
type slot struct {
	weight int32  // future-cone size here while unconfirmed, then frozen
	tipPos int32  // index in tips, -1 when approved
	stamp  uint32 // last ancestor walk that visited it
}

// DefaultGapLimit bounds the parked-vertex backlog.
const DefaultGapLimit = 1024

// New builds a replica seeded with the genesis vertex, over a catalog of
// its own; Replica makes the other nodes of the same network.
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
	cat := catalog.New[VertexID, catEntry]()
	cat.Add(genesis.Hash(), catEntry{vertex: genesis})
	return replicaOn(&cat, int32(confirmWeight)), nil
}

func replicaOn(cat *catalog.Catalog[VertexID, catEntry], confirmWeight int32) *Tangle {
	t := &Tangle{
		cat:           cat,
		confirmWeight: confirmWeight,
		order:         []VertexID{genesisID},
		slots:         make([]slot, genesisID+1),
		parked:        backlog.New[hashx.Hash, *Vertex](DefaultGapLimit),
	}
	t.attached.Add(uint32(genesisID))
	t.confirmed.Add(uint32(genesisID)) // born confirmed: the coverage base case
	t.confirmedCount = 1
	t.addTip(genesisID)
	return t
}

// Replica returns a new replica at genesis for another node of t's
// network, whatever t has attached since: the two share the vertex
// catalog and keep their own state. The parked backlog's bounds and hook
// belong to each replica and are not carried over. The replicas of one
// network must stay on one goroutine, as their catalog does.
func (t *Tangle) Replica() *Tangle { return replicaOn(t.cat, t.confirmWeight) }

// Index returns the id index of the network's vertex catalog.
func (t *Tangle) Index() *catalog.Index { return t.cat.Index() }

// Parked exposes the parked-vertex backlog: its count and age bounds,
// eviction hook and eviction count. Network layers bound it and hook
// evictions to clear dedup state and re-pull.
func (t *Tangle) Parked() *backlog.Buffer[hashx.Hash, *Vertex] { return &t.parked }

// vertex returns this replica's pointer for an attached id.
func (t *Tangle) vertex(id VertexID) *Vertex { return t.own.Get(id, t.cat.At(id).vertex) }

// lookup returns the id of the vertex with hash h if it is attached here.
func (t *Tangle) lookup(h hashx.Hash) (VertexID, bool) {
	id := t.cat.ID(h)
	return id, id != 0 && t.attached.Has(uint32(id))
}

// HashOf returns the hash of the vertex with a catalog id this replica
// reported, as in Result.Confirmed.
func (t *Tangle) HashOf(id VertexID) hashx.Hash { return t.cat.At(id).vertex.Hash() }

// addTip registers id as a tip.
func (t *Tangle) addTip(id VertexID) {
	t.slots[id].tipPos = int32(len(t.tips))
	t.tips = append(t.tips, id)
}

// removeTip unregisters id as a tip (swap-remove; deterministic given
// deterministic attach order).
func (t *Tangle) removeTip(id VertexID) {
	pos := t.slots[id].tipPos
	if pos < 0 {
		return
	}
	last := t.tips[len(t.tips)-1]
	t.tips[pos] = last
	t.slots[last].tipPos = pos
	t.tips = t.tips[:len(t.tips)-1]
	t.slots[id].tipPos = -1
}

// Attach validates and inserts a vertex, draining any parked vertices
// the arrival unblocks and reporting newly confirmed coverage. Aged-out
// parked vertices are expired first.
func (t *Tangle) Attach(v *Vertex) Result {
	t.parked.Expire()
	t.confirmedBuf, t.drainedBuf = t.confirmedBuf[:0], t.drainedBuf[:0]
	res := t.attachOne(v)
	if res.Status == Accepted && t.parked.Len() > 0 {
		// Drain parked descendants breadth-first: each drained vertex
		// may itself unblock more.
		queue := append(t.queue[:0], v.Hash())
		for i := 0; i < len(queue); i++ {
			for _, w := range t.parked.Take(queue[i]) {
				if t.attachOne(w).Status == Accepted {
					t.drainedBuf = append(t.drainedBuf, w)
					queue = append(queue, w.Hash())
				}
			}
		}
		t.queue = queue[:0]
	}
	res.Drained, res.Confirmed = t.drainedBuf, t.confirmedBuf
	return res
}

// attachOne inserts a single vertex without draining, appending what it
// confirms to confirmedBuf. Every check runs on the pointer received,
// never on the catalog's: the content hash does not cover PubKey and
// Sig, so a same-hash copy must earn its own acceptance. It does cover
// the parents, so for a vertex the catalog holds their ids are read from
// its entry rather than looked up by hash.
func (t *Tangle) attachOne(v *Vertex) Result {
	h := v.Hash()
	id, e := t.cat.Lookup(&v.idMemo, h)
	if t.attached.Has(uint32(id)) {
		return Result{Status: Duplicate}
	}
	if v.ParentA == h || v.ParentB == h {
		return Result{Status: Rejected}
	}
	if !v.VerifySig() {
		return Result{Status: Rejected}
	}
	var pa, pb VertexID
	if e.vertex != nil {
		pa, pb = e.parents[0], e.parents[1]
	} else {
		pa, pb = t.cat.ID(v.ParentA), t.cat.ID(v.ParentB)
	}
	if !t.attached.Has(uint32(pa)) {
		t.park(v.ParentA, v)
		return Result{Status: GapParent, Missing: v.ParentA}
	}
	if !t.attached.Has(uint32(pb)) {
		t.park(v.ParentB, v)
		return Result{Status: GapParent, Missing: v.ParentB}
	}

	// The catalog entry is written on the vertex's first attach in the
	// network; a later replica that verified another pointer under the
	// same hash keeps that pointer as its own.
	if e.vertex == nil {
		id = t.cat.Add(h, catEntry{vertex: v, parents: [2]VertexID{pa, pb}})
		e = t.cat.At(id)
	}
	t.own.Keep(id, v, e.vertex)
	t.attached.Add(uint32(id))
	t.order = append(t.order, id)
	// Grown a slot at a time: append(s, make(...)...) allocates its
	// temporary in race builds, and Attach allocates nothing once warm.
	for int(id) >= len(t.slots) {
		t.slots = append(t.slots, slot{})
	}
	t.removeTip(pa)
	t.removeTip(pb)
	t.addTip(id)
	t.propagate(id)
	return Result{Status: Accepted}
}

// propagate walks the new vertex's past cone, incrementing cumulative
// weight on every unconfirmed ancestor, and cements the ones that cross
// the threshold. The walk is pruned at confirmed vertices — sound
// because cementing is closed over ancestry: an ancestor is always
// confirmed no later than its descendants (its future cone strictly
// contains theirs), so nothing beyond a confirmed vertex still needs
// weight.
func (t *Tangle) propagate(id VertexID) {
	t.epoch++
	ps := t.cat.At(id).parents
	t.stack = append(t.stack[:0], ps[0], ps[1])
	for len(t.stack) > 0 {
		u := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if u == 0 || t.confirmed.Has(uint32(u)) || t.slots[u].stamp == t.epoch {
			continue
		}
		s := &t.slots[u]
		s.stamp = t.epoch
		s.weight++
		if s.weight >= t.confirmWeight {
			t.cement(u)
			continue
		}
		ps := t.cat.At(u).parents
		t.stack = append(t.stack, ps[0], ps[1])
	}
}

// cement confirms id and, first, every still-unconfirmed ancestor —
// each necessarily at or past the threshold already, since an
// unconfirmed ancestor's weight is at least its descendant's plus one.
// Output order (appended to confirmedBuf) is ancestor before
// descendant, the §IV coverage closure.
func (t *Tangle) cement(id VertexID) {
	t.confirmed.Add(uint32(id))
	for _, p := range t.cat.At(id).parents {
		if p != 0 && !t.confirmed.Has(uint32(p)) {
			t.cement(p)
		}
	}
	t.confirmedCount++
	t.confirmedBuf = append(t.confirmedBuf, id)
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
		g := t.HashOf(genesisID)
		return g, g
	}
	a := t.tips[rng.Intn(n)]
	b := t.tips[rng.Intn(n)]
	return t.HashOf(a), t.HashOf(b)
}

// Attached returns the catalog ids of the vertices attached here (parked
// vertices excluded), the replica's own set rather than a copy: read it,
// do not keep it, since a later attach may grow it into a new array.
func (t *Tangle) Attached() bitset.Set { return t.attached }

// Has reports whether the vertex is attached.
func (t *Tangle) Has(h hashx.Hash) bool {
	_, ok := t.lookup(h)
	return ok
}

// Get returns an attached vertex. A vertex other replicas of the network
// hold but this one has not attached does not exist here.
func (t *Tangle) Get(h hashx.Hash) (*Vertex, bool) {
	id, ok := t.lookup(h)
	if !ok {
		return nil, false
	}
	return t.vertex(id), true
}

// Confirmed reports whether the vertex is attached and past the
// coverage threshold.
func (t *Tangle) Confirmed(h hashx.Hash) bool {
	id, ok := t.lookup(h)
	return ok && t.confirmed.Has(uint32(id))
}

// Weight returns the accumulated future-cone weight of an attached
// vertex (frozen once confirmed).
func (t *Tangle) Weight(h hashx.Hash) int {
	id, ok := t.lookup(h)
	if !ok {
		return 0
	}
	return int(t.slots[id].weight)
}

// VertexCount is the number of attached vertices, genesis included.
func (t *Tangle) VertexCount() int { return len(t.order) }

// ConfirmedCount is the number of confirmed vertices, genesis included.
func (t *Tangle) ConfirmedCount() int { return t.confirmedCount }

// TipCount is the number of current tips.
func (t *Tangle) TipCount() int { return len(t.tips) }

// ParkedCount is the number of vertices waiting on missing parents.
func (t *Tangle) ParkedCount() int { return t.parked.Len() }

// LedgerBytes is the modeled storage footprint: §V's size axis. One
// transaction per vertex means the whole graph is payload — there is no
// block header amortization to subtract.
func (t *Tangle) LedgerBytes() int { return len(t.order) * wireSize }

// AllVertices returns the attachment-ordered vertex stream — a
// topological order by construction, which is what makes it servable as
// the cold-start canonical stream: a puller attaching in this order
// never gaps (modulo network reordering, which parking absorbs).
func (t *Tangle) AllVertices() []*Vertex {
	out := make([]*Vertex, len(t.order))
	for i, id := range t.order {
		out[i] = t.vertex(id)
	}
	return out
}

// VertexAt returns the i-th vertex in attachment order.
func (t *Tangle) VertexAt(i int) *Vertex { return t.vertex(t.order[i]) }
