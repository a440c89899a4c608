package tangle

import (
	"math/rand"
	"testing"

	"repro/internal/hashx"
	"repro/internal/keys"
)

func testRing(t testing.TB, n int) *keys.Ring {
	t.Helper()
	return keys.NewRing("tangle-test", n)
}

func newTestTangle(t testing.TB, ring *keys.Ring, confirmWeight int) (*Tangle, *Vertex) {
	t.Helper()
	gen := Genesis(ring.Pair(0), 1_000_000)
	tg, err := New(gen, confirmWeight)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tg, gen
}

func TestVertexHashAndSig(t *testing.T) {
	ring := testRing(t, 2)
	gen := Genesis(ring.Pair(0), 10)
	v := NewVertex(ring.Pair(1), 1, gen.Hash(), gen.Hash(), ring.Addr(0), 5)
	if v.Hash() != v.Hash() {
		t.Fatal("hash not stable")
	}
	if !v.VerifySig() {
		t.Fatal("valid signature rejected")
	}
	if v.EncodedSize() != wireSize {
		t.Fatalf("EncodedSize = %d, want %d", v.EncodedSize(), wireSize)
	}
	// A value copy must re-hash (pointer-identity memo) and a tampered
	// signature must fail even after a prior success on the original.
	cp := *v
	if cp.Hash() != v.Hash() {
		t.Fatal("copy hashes differently")
	}
	sig := append([]byte(nil), v.Sig()...)
	sig[0] ^= 0x40
	if bad := v.WithSig(sig); bad.VerifySig() {
		t.Fatal("tampered signature accepted")
	}
	// Wrong issuer for the key.
	imp := NewVertex(ring.Pair(1), 2, gen.Hash(), gen.Hash(), ring.Addr(0), 5)
	imp.Issuer = ring.Addr(0)
	imp.memoSelf = nil // force re-hash over the forged issuer
	if imp.VerifySig() {
		t.Fatal("issuer/key mismatch accepted")
	}
}

func TestGenesisBornConfirmed(t *testing.T) {
	ring := testRing(t, 1)
	tg, gen := newTestTangle(t, ring, 4)
	if !tg.Confirmed(gen.Hash()) {
		t.Fatal("genesis not confirmed")
	}
	if tg.ConfirmedCount() != 1 || tg.VertexCount() != 1 || tg.TipCount() != 1 {
		t.Fatalf("counts = %d/%d/%d, want 1/1/1",
			tg.ConfirmedCount(), tg.VertexCount(), tg.TipCount())
	}
}

// chainOf attaches a linear chain of n vertices on top of the genesis
// and returns them in attach order.
func chainOf(t *testing.T, tg *Tangle, ring *keys.Ring, gen *Vertex, n int) []*Vertex {
	t.Helper()
	prev := gen.Hash()
	out := make([]*Vertex, 0, n)
	for i := 0; i < n; i++ {
		v := NewVertex(ring.Pair(0), uint64(i+1), prev, prev, ring.Addr(0), 1)
		if res := tg.Attach(v); res.Status != Accepted {
			t.Fatalf("attach %d: %v", i, res.Status)
		}
		prev = v.Hash()
		out = append(out, v)
	}
	return out
}

func TestCumulativeCoverageConfirms(t *testing.T) {
	ring := testRing(t, 1)
	tg, gen := newTestTangle(t, ring, 3)
	chain := chainOf(t, tg, ring, gen, 5)
	// In a chain with threshold 3, vertex k gains weight from each of
	// its descendants: v0 has 4 descendants -> confirmed, v1 has 3 ->
	// confirmed, v2 has 2, v3 has 1, v4 has 0.
	for i, v := range chain {
		want := len(chain)-1-i >= 3
		if got := tg.Confirmed(v.Hash()); got != want {
			t.Fatalf("vertex %d confirmed = %v, want %v (weight %d)",
				i, got, want, tg.Weight(v.Hash()))
		}
	}
	if tg.ConfirmedCount() != 3 { // genesis + v0 + v1
		t.Fatalf("ConfirmedCount = %d, want 3", tg.ConfirmedCount())
	}
}

func TestConfirmOrderAncestorsFirst(t *testing.T) {
	ring := testRing(t, 1)
	tg, gen := newTestTangle(t, ring, 4)
	var confirmed []hashx.Hash
	prev := gen.Hash()
	var made []*Vertex
	for i := 0; i < 8; i++ {
		v := NewVertex(ring.Pair(0), uint64(i+1), prev, prev, ring.Addr(0), 1)
		res := tg.Attach(v)
		if res.Status != Accepted {
			t.Fatalf("attach %d: %v", i, res.Status)
		}
		for _, id := range res.Confirmed {
			confirmed = append(confirmed, tg.HashOf(id))
		}
		prev = v.Hash()
		made = append(made, v)
	}
	if len(confirmed) == 0 {
		t.Fatal("nothing confirmed")
	}
	// Attach order is ancestor order on a chain: reported confirmations
	// must respect it.
	pos := map[hashx.Hash]int{}
	for i, v := range made {
		pos[v.Hash()] = i
	}
	for i := 1; i < len(confirmed); i++ {
		if pos[confirmed[i-1]] > pos[confirmed[i]] {
			t.Fatalf("confirmation order violates ancestry: %d before %d",
				pos[confirmed[i-1]], pos[confirmed[i]])
		}
	}
}

func TestGapParkingAndDrain(t *testing.T) {
	ring := testRing(t, 1)
	tg, gen := newTestTangle(t, ring, 100)
	v1 := NewVertex(ring.Pair(0), 1, gen.Hash(), gen.Hash(), ring.Addr(0), 1)
	v2 := NewVertex(ring.Pair(0), 2, v1.Hash(), v1.Hash(), ring.Addr(0), 1)
	v3 := NewVertex(ring.Pair(0), 3, v2.Hash(), v2.Hash(), ring.Addr(0), 1)
	if res := tg.Attach(v3); res.Status != GapParent || res.Missing != v2.Hash() {
		t.Fatalf("v3 = %v (missing %x), want gap on v2", res.Status, res.Missing[:4])
	}
	if res := tg.Attach(v2); res.Status != GapParent || res.Missing != v1.Hash() {
		t.Fatalf("v2 = %v, want gap on v1", res.Status)
	}
	if tg.ParkedCount() != 2 {
		t.Fatalf("ParkedCount = %d, want 2", tg.ParkedCount())
	}
	res := tg.Attach(v1)
	if res.Status != Accepted {
		t.Fatalf("v1 = %v", res.Status)
	}
	if len(res.Drained) != 2 || res.Drained[0] != v2 || res.Drained[1] != v3 {
		t.Fatalf("drained %d vertices, want [v2 v3]", len(res.Drained))
	}
	if tg.ParkedCount() != 0 || tg.VertexCount() != 4 {
		t.Fatalf("parked %d / vertices %d, want 0 / 4", tg.ParkedCount(), tg.VertexCount())
	}
}

func TestDuplicateAndRejected(t *testing.T) {
	ring := testRing(t, 1)
	tg, gen := newTestTangle(t, ring, 4)
	v := NewVertex(ring.Pair(0), 1, gen.Hash(), gen.Hash(), ring.Addr(0), 1)
	if res := tg.Attach(v); res.Status != Accepted {
		t.Fatalf("first attach: %v", res.Status)
	}
	if res := tg.Attach(v); res.Status != Duplicate {
		t.Fatalf("second attach: %v, want duplicate", res.Status)
	}
	bad := NewVertex(ring.Pair(0), 2, gen.Hash(), gen.Hash(), ring.Addr(0), 1)
	bad.Sig()[0] ^= 1
	if res := tg.Attach(bad); res.Status != Rejected {
		t.Fatalf("bad sig: %v, want rejected", res.Status)
	}
}

func TestTipsTrackAttachment(t *testing.T) {
	ring := testRing(t, 1)
	tg, gen := newTestTangle(t, ring, 100)
	v1 := NewVertex(ring.Pair(0), 1, gen.Hash(), gen.Hash(), ring.Addr(0), 1)
	tg.Attach(v1)
	if tg.TipCount() != 1 {
		t.Fatalf("tips after v1 = %d, want 1 (genesis approved)", tg.TipCount())
	}
	// Two vertices approving v1 from different draws: both become tips.
	v2 := NewVertex(ring.Pair(0), 2, v1.Hash(), v1.Hash(), ring.Addr(0), 1)
	v3 := NewVertex(ring.Pair(0), 3, v1.Hash(), v1.Hash(), ring.Addr(0), 1)
	tg.Attach(v2)
	tg.Attach(v3)
	if tg.TipCount() != 2 {
		t.Fatalf("tips = %d, want 2", tg.TipCount())
	}
	rng := rand.New(rand.NewSource(1))
	a, b := tg.SelectTips(rng)
	if !tg.Has(a) || !tg.Has(b) {
		t.Fatal("selected tips not attached")
	}
	if tg.Confirmed(a) && tg.Confirmed(b) {
		// With threshold 100 nothing beyond genesis is confirmed, and
		// genesis is no longer a tip.
		t.Fatal("selected confirmed vertices as tips")
	}
}

func TestGapEvictionBound(t *testing.T) {
	ring := testRing(t, 1)
	tg, _ := newTestTangle(t, ring, 100)
	tg.Parked().SetLimit(2)
	var evicted []*Vertex
	tg.Parked().OnEvict(func(v *Vertex) { evicted = append(evicted, v) })
	missing := hashx.Sum([]byte("nowhere"))
	var orphans []*Vertex
	for i := 0; i < 4; i++ {
		v := NewVertex(ring.Pair(0), uint64(i+1), missing, missing, ring.Addr(0), 1)
		orphans = append(orphans, v)
		if res := tg.Attach(v); res.Status != GapParent {
			t.Fatalf("orphan %d: %v", i, res.Status)
		}
	}
	if tg.ParkedCount() != 2 {
		t.Fatalf("ParkedCount = %d, want 2", tg.ParkedCount())
	}
	if len(evicted) != 2 || evicted[0] != orphans[0] || evicted[1] != orphans[1] {
		t.Fatalf("evicted %d, want the two oldest", len(evicted))
	}
}

func TestCoverageClosureRandomDAG(t *testing.T) {
	ring := testRing(t, 4)
	tg, _ := newTestTangle(t, ring, 3)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		pa, pb := tg.SelectTips(rng)
		who := rng.Intn(4)
		v := NewVertex(ring.Pair(who), uint64(1000*who+i), pa, pb, ring.Addr(rng.Intn(4)), 1)
		if res := tg.Attach(v); res.Status != Accepted {
			t.Fatalf("attach %d: %v", i, res.Status)
		}
	}
	assertCoverageClosure(t, tg)
	if tg.ConfirmedCount() < 2 {
		t.Fatal("random DAG confirmed nothing beyond genesis")
	}
}

// assertCoverageClosure checks the §IV invariant: every confirmed
// vertex's parents are attached and confirmed (coverage is closed over
// ancestry), and no confirmed vertex has been orphaned out of the DAG.
func assertCoverageClosure(t *testing.T, tg *Tangle) {
	t.Helper()
	for _, v := range tg.AllVertices() {
		h := v.Hash()
		if !tg.Has(h) {
			t.Fatalf("attached vertex %x missing from the DAG", h[:4])
		}
		if !tg.Confirmed(h) {
			continue
		}
		for _, p := range [2]hashx.Hash{v.ParentA, v.ParentB} {
			if p == hashx.Zero {
				continue // genesis
			}
			if !tg.Has(p) {
				t.Fatalf("confirmed vertex %x has unattached parent %x", h[:4], p[:4])
			}
			if !tg.Confirmed(p) {
				t.Fatalf("confirmed vertex %x has unconfirmed parent %x", h[:4], p[:4])
			}
		}
	}
}

// The content hash does not cover PubKey and Sig, so the catalog's
// pointer for a hash proves nothing about another pointer under it: a
// replica checks the vertex it was handed. A forged copy is refused on a
// replica exactly as on a private catalog, even once the honest original
// sits in the shared catalog; an honest copy under another pointer is
// kept and served as that replica's own.
func TestTangleReplicaKeepsThePointerItValidated(t *testing.T) {
	ring := testRing(t, 2)
	base, gen := newTestTangle(t, ring, 100)
	v := NewVertex(ring.Pair(1), 1, gen.Hash(), gen.Hash(), ring.Addr(0), 5)
	sig := append([]byte(nil), v.Sig()...)
	sig[3] ^= 0x10
	forged := v.WithSig(sig)
	honest := v.WithSig(append([]byte(nil), v.Sig()...))

	private, _ := newTestTangle(t, ring, 100)
	if res := private.Attach(forged); res.Status != Rejected {
		t.Fatalf("private catalog: forged copy %v, want rejected", res.Status)
	}
	if res := base.Attach(v); res.Status != Accepted {
		t.Fatalf("original: %v", res.Status)
	}
	replica := base.Replica()
	if res := replica.Attach(forged); res.Status != Rejected {
		t.Fatalf("replica: forged copy %v, want rejected", res.Status)
	}
	if replica.Has(v.Hash()) || replica.VertexCount() != 1 {
		t.Fatal("the replica holds the vertex after refusing its only copy")
	}
	if res := replica.Attach(honest); res.Status != Accepted {
		t.Fatalf("replica: honest copy %v, want accepted", res.Status)
	}
	if got, _ := replica.Get(v.Hash()); got != honest {
		t.Fatalf("replica serves %p, want its own copy %p", got, honest)
	}
	if replica.VertexAt(1) != honest || replica.AllVertices()[1] != honest {
		t.Fatal("the replica's stream does not carry its own copy")
	}
	if got, _ := base.Get(v.Hash()); got != v {
		t.Fatalf("the catalog's first replica serves %p, want the original %p", got, v)
	}
}

// A vertex's id memo is a cache of its hash's id, never a verdict. A
// same-hash copy with another signature, taken before or after the honest
// vertex's memo is written and delivered before or after the honest
// vertex attaches, is checked on its own pointer and never attaches, on
// the replica that holds the honest vertex or on one that does not; the
// honest vertex attaches wherever it is delivered, under one id.
func TestForgedCopyNeverAttachesThroughTheMemo(t *testing.T) {
	ring := testRing(t, 2)
	a, gen := newTestTangle(t, ring, 100)
	b := a.Replica()
	v := NewVertex(ring.Pair(1), 1, gen.Hash(), gen.Hash(), ring.Addr(0), 5)
	forge := func() *Vertex { // a same-hash copy carrying v's memo as it stands
		sig := append([]byte(nil), v.Sig()...)
		sig[3] ^= 0x10
		return v.WithSig(sig)
	}
	refuse := func(r *Tangle, name string, f *Vertex, want Status) {
		t.Helper()
		if res := r.Attach(f); res.Status != want {
			t.Fatalf("%s: forged copy %v, want %v", name, res.Status, want)
		}
		if got, ok := r.Get(v.Hash()); ok && got != v {
			t.Fatalf("%s holds %p under the hash, want the honest %p", name, got, v)
		}
	}
	early := forge()
	// The network numbers what it sees first: the forged copy's id is
	// handed out, its entry stays empty.
	id := early.IDIn(a.Index())
	refuse(a, "a", early, Rejected)
	refuse(b, "b", early, Rejected)
	if a.Has(v.Hash()) || b.Has(v.Hash()) {
		t.Fatal("a forged copy attached")
	}
	if got := v.IDIn(a.Index()); got != id {
		t.Fatalf("honest vertex has id %d, the forged copy %d", got, id)
	}
	late := forge() // carries v's written memo
	if res := a.Attach(v); res.Status != Accepted {
		t.Fatalf("a: honest vertex %v", res.Status)
	}
	refuse(a, "a", late, Duplicate)
	refuse(a, "a", early, Duplicate)
	refuse(b, "b", late, Rejected) // the catalog holds v, b has not attached it
	refuse(b, "b", early, Rejected)
	if b.Has(v.Hash()) {
		t.Fatal("a forged copy attached through the catalog's entry")
	}
	if res := b.Attach(v); res.Status != Accepted {
		t.Fatalf("b: honest vertex %v", res.Status)
	}
	refuse(b, "b", late, Duplicate)
	if got := late.IDIn(a.Index()); got != id {
		t.Fatalf("forged copy has id %d, want %d", got, id)
	}
}

// A vertex the catalog holds takes its parents' ids from its entry, and a
// replica that has attached only one of them parks it on the other, as it
// would a vertex it looked up by hash, and attaches it once that arrives.
func TestHeldVertexWaitsForBothParents(t *testing.T) {
	ring := testRing(t, 2)
	a, gen := newTestTangle(t, ring, 100)
	b := a.Replica()
	p1 := NewVertex(ring.Pair(1), 1, gen.Hash(), gen.Hash(), ring.Addr(0), 1)
	p2 := NewVertex(ring.Pair(1), 2, gen.Hash(), gen.Hash(), ring.Addr(0), 2)
	w := NewVertex(ring.Pair(1), 3, p1.Hash(), p2.Hash(), ring.Addr(0), 3)
	for _, v := range []*Vertex{p1, p2, w} {
		if res := a.Attach(v); res.Status != Accepted {
			t.Fatalf("a: %v", res.Status)
		}
	}
	if res := b.Attach(p1); res.Status != Accepted {
		t.Fatalf("b: first parent %v", res.Status)
	}
	if res := b.Attach(w); res.Status != GapParent || res.Missing != p2.Hash() {
		t.Fatalf("b: vertex %v missing %x, want parked on its second parent", res.Status, res.Missing[:4])
	}
	if res := b.Attach(p2); res.Status != Accepted || len(res.Drained) != 1 || res.Drained[0] != w {
		t.Fatalf("b: second parent %v drained %d, want the vertex drained", res.Status, len(res.Drained))
	}
}

// One Attach that drains a parked chain reports every confirmation the
// arrival and the drained vertices make, each once and ancestor first,
// exactly as the map model does: the drain appends to the same buffer
// the arrival's own confirmations went to.
func TestAttachDrainReportsEveryConfirmation(t *testing.T) {
	ring := testRing(t, 1)
	tg, gen := newTestTangle(t, ring, 2)
	m := newMapTangle(gen, 2)
	chain := []*Vertex{gen}
	for i := 1; i <= 8; i++ {
		p := chain[i-1].Hash()
		chain = append(chain, NewVertex(ring.Pair(0), uint64(i), p, p, ring.Addr(0), 1))
	}
	// v1 and v2 attach; v4..v8 park behind v3, newest first.
	for _, v := range chain[1:3] {
		tg.Attach(v)
		m.Attach(v)
	}
	for i := len(chain) - 1; i > 3; i-- {
		tg.Attach(chain[i])
		m.Attach(chain[i])
	}
	before := tg.ConfirmedCount()
	res := tg.Attach(chain[3])
	want := m.Attach(chain[3])
	if len(res.Drained) != 5 {
		t.Fatalf("drained %d vertices, want 5", len(res.Drained))
	}
	got := make([]hashx.Hash, len(res.Confirmed))
	for i, id := range res.Confirmed {
		got[i] = tg.HashOf(id)
	}
	if len(got) != tg.ConfirmedCount()-before {
		t.Fatalf("reported %d confirmations, %d happened", len(got), tg.ConfirmedCount()-before)
	}
	if len(got) != len(want.Confirmed) {
		t.Fatalf("confirmed %d vertices, model %d", len(got), len(want.Confirmed))
	}
	for i := range got {
		if got[i] != want.Confirmed[i] {
			t.Fatalf("confirmation %d is %x, model %x", i, got[i][:4], want.Confirmed[i][:4])
		}
	}
	// Each of v3..v8 lifts its grandparent to weight 2: v1..v6 confirm,
	// in chain order, which is ancestor order.
	if len(got) != 6 {
		t.Fatalf("confirmed %d vertices, want v1..v6", len(got))
	}
	for i, h := range got {
		if h != chain[i+1].Hash() {
			t.Fatalf("confirmation %d is %x, want v%d", i, h[:4], i+1)
		}
	}
}

// A cementing Attach on a warmed replica reports its confirmations in
// the replica's own buffer: no allocation. The vertices are catalogued
// by another replica first, so the catalog does not grow either.
func TestCementingAttachAllocatesNothing(t *testing.T) {
	ring := testRing(t, 1)
	first, gen := newTestTangle(t, ring, 2)
	const warm, runs = 64, 50
	vs := []*Vertex{gen}
	for i := 1; i <= warm+runs+1; i++ {
		p := vs[i-1].Hash()
		v := NewVertex(ring.Pair(0), uint64(i), p, p, ring.Addr(0), 1)
		first.Attach(v)
		vs = append(vs, v)
	}
	tg := first.Replica()
	for _, v := range vs[1 : warm+1] {
		tg.Attach(v)
	}
	next := warm + 1
	if n := testing.AllocsPerRun(runs, func() {
		res := tg.Attach(vs[next])
		if res.Status != Accepted || len(res.Confirmed) != 1 {
			t.Fatalf("attach %d: %v, %d confirmed", next, res.Status, len(res.Confirmed))
		}
		next++
	}); n != 0 {
		t.Fatalf("a cementing Attach allocates %v times, want 0", n)
	}
}
