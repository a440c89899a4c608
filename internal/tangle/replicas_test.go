package tangle

// FuzzTangleReplicas: the replicas of one network share one vertex
// catalog, so a vertex one replica attaches is content every other
// replica can find by hash — and must still treat as absent until it
// attaches the vertex itself. The fuzzer puts three replicas on one
// catalog, one of them made mid-run, drives them down diverging
// histories (valid vertices on each replica's own tips, any pooled
// vertex delivered anywhere, duplicates, gap parents, bad signatures,
// self-references, same-hash copies under another pointer, forged or
// honest, and gap limits 1–4) and checks every replica after every step
// against its own naive model (mapTangle, model_test.go).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hashx"
)

// replicaPair is one catalog-backed replica, the model it must agree
// with, and the vertices each one's backlog evicted.
type replicaPair struct {
	tg           *Tangle
	m            *mapTangle
	tgEv, modEvs []*Vertex
}

func newReplicaPair(tg *Tangle, genesis *Vertex, confirmWeight int) *replicaPair {
	p := &replicaPair{tg: tg, m: newMapTangle(genesis, confirmWeight)}
	tg.Parked().OnEvict(func(v *Vertex) { p.tgEv = append(p.tgEv, v) })
	p.m.parked.OnEvict(func(v *Vertex) { p.modEvs = append(p.modEvs, v) })
	return p
}

// sameAttach compares an Attach result with the model's, resolving the
// replica's confirmed catalog ids to hashes.
func (p *replicaPair) sameAttach(got Result, want mapResult) error {
	if got.Status != want.Status || got.Missing != want.Missing {
		return fmt.Errorf("status %v missing %s vs model %v missing %s", got.Status, got.Missing, want.Status, want.Missing)
	}
	if fmt.Sprint(got.Drained) != fmt.Sprint(want.Drained) {
		return fmt.Errorf("drained %p vs model %p", got.Drained, want.Drained)
	}
	confirmed := make([]hashx.Hash, len(got.Confirmed))
	for i, id := range got.Confirmed {
		confirmed[i] = p.tg.HashOf(id)
	}
	if fmt.Sprint(confirmed) != fmt.Sprint(want.Confirmed) {
		return fmt.Errorf("confirmed %v vs model %v", confirmed, want.Confirmed)
	}
	return nil
}

// agree compares everything a replica answers with its model's answer.
// probes are the hashes the per-vertex queries are asked about; seed
// feeds both sides' tip draws the same RNG.
func (p *replicaPair) agree(probes []hashx.Hash, seed int64) error {
	tg, m := p.tg, p.m
	for _, h := range probes {
		gv, gok := tg.Get(h)
		mv, mok := m.Get(h)
		if gok != mok || gv != mv || tg.Has(h) != m.Has(h) {
			return fmt.Errorf("Get(%s): %p/%v vs model %p/%v", h, gv, gok, mv, mok)
		}
		if tg.Confirmed(h) != m.Confirmed(h) || tg.Weight(h) != m.Weight(h) {
			return fmt.Errorf("%s: confirmed %v weight %d vs model %v weight %d",
				h, tg.Confirmed(h), tg.Weight(h), m.Confirmed(h), m.Weight(h))
		}
	}
	if tg.VertexCount() != m.VertexCount() || tg.ConfirmedCount() != m.ConfirmedCount() || tg.TipCount() != m.TipCount() {
		return fmt.Errorf("counts %d/%d/%d vs model %d/%d/%d", tg.VertexCount(), tg.ConfirmedCount(), tg.TipCount(),
			m.VertexCount(), m.ConfirmedCount(), m.TipCount())
	}
	gr, mr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for i := 0; i < 3; i++ {
		ga, gb := tg.SelectTips(gr)
		ma, mb := m.SelectTips(mr)
		if ga != ma || gb != mb {
			return fmt.Errorf("SelectTips draw %d: %s %s vs model %s %s", i, ga, gb, ma, mb)
		}
	}
	all := tg.AllVertices()
	if fmt.Sprint(all) != fmt.Sprint(m.AllVertices()) {
		return fmt.Errorf("AllVertices %p vs model %p", all, m.AllVertices())
	}
	for i, v := range all {
		if tg.VertexAt(i) != v {
			return fmt.Errorf("VertexAt(%d) = %p, AllVertices holds %p", i, tg.VertexAt(i), v)
		}
	}
	if tg.ParkedCount() != m.ParkedCount() || tg.Parked().Evicted() != m.parked.Evicted() {
		return fmt.Errorf("parked %d (%d evicted) vs model %d (%d evicted)",
			tg.ParkedCount(), tg.Parked().Evicted(), m.ParkedCount(), m.parked.Evicted())
	}
	if fmt.Sprint(p.tgEv) != fmt.Sprint(p.modEvs) {
		return fmt.Errorf("evictions %p vs model %p", p.tgEv, p.modEvs)
	}
	return nil
}

func FuzzTangleReplicas(f *testing.F) {
	// Pairs of (op + 8*replica, arg); the first byte picks the threshold.
	f.Add([]byte{2, 0, 0, 0, 1, 0, 2, 8, 1, 16, 2, 0, 3, 9, 3, 17, 0})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 2, 2, 9, 1, 17, 2, 4, 1, 12, 3, 20, 4, 0, 5, 9, 6})
	// Gap parents under a bound of 1, then the parent arrives elsewhere.
	f.Add([]byte{3, 6, 0, 2, 1, 2, 2, 2, 3, 0, 4, 8, 1, 9, 2, 9, 3, 9, 4, 1, 1})
	// Forged copies of vertices one replica attached, offered to the
	// others before and after the original; self-references.
	f.Add([]byte{2, 0, 0, 0, 1, 11, 1, 19, 1, 3, 1, 5, 1, 13, 2, 9, 1, 17, 1, 5, 3, 0, 2})
	// An honest copy under another pointer reaches the catalog first.
	f.Add([]byte{2, 0, 0, 12, 1, 4, 1, 0, 2, 20, 2, 9, 1, 9, 2, 17, 2, 17, 1, 0, 3})
	// Replica 1 takes a child before its parent: the parent drains it.
	f.Add([]byte{1, 0, 0, 0, 0, 10, 2, 10, 1})
	// A gap vertex delivered twice waits once; a vertex approving a
	// parent and its child cements both.
	f.Add([]byte{0, 3, 0, 2, 1, 0, 0, 1, 0x21, 1, 0x32, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		confirmWeight := 1 + int(data[0]%4)
		data = data[1:]
		genesis := Genesis(fuzzRing.Pair(0), 1_000)
		base, err := New(genesis, confirmWeight)
		if err != nil {
			t.Fatal(err)
		}
		// The third replica is made the first time an op names it, from
		// the second, which may hold history by then: a replica starts at
		// genesis whatever the one it was made from holds.
		reps := []*replicaPair{newReplicaPair(base, genesis, confirmWeight)}
		reps = append(reps, newReplicaPair(base.Replica(), genesis, confirmWeight))

		// pool holds every vertex generated so far, so any replica can be
		// handed any other replica's history.
		pool := []*Vertex{genesis}
		gen := rand.New(rand.NewSource(int64(len(data))))
		seq := uint64(0)
		mint := func(who int, pa, pb hashx.Hash) *Vertex {
			seq++
			v := NewVertex(fuzzRing.Pair(who%fuzzTangleAccounts), seq, pa, pb, fuzzRing.Addr(0), 1)
			pool = append(pool, v)
			return v
		}
		probes := func() []hashx.Hash {
			out := make([]hashx.Hash, 0, len(pool)+1)
			for _, v := range pool {
				out = append(out, v.Hash())
			}
			return append(out, hashx.Sum([]byte("never a vertex")))
		}
		deliver := func(p *replicaPair, v *Vertex) {
			if err := p.sameAttach(p.tg.Attach(v), p.m.Attach(v)); err != nil {
				t.Fatalf("Attach(%s): %v", v.Hash(), err)
			}
		}

		const maxOps = 48
		for i, ops := 0, 0; i+1 < len(data) && ops < maxOps; i, ops = i+2, ops+1 {
			k := int(data[i]/8) % 3
			if k == len(reps) {
				reps = append(reps, newReplicaPair(reps[1].tg.Replica(), genesis, confirmWeight))
			}
			p := reps[k]
			arg := data[i+1]
			switch data[i] % 8 {
			case 0: // a valid vertex on this replica's own tips
				pa, pb := p.m.SelectTips(gen)
				deliver(p, mint(int(arg), pa, pb))
			case 1: // a valid vertex approving any two of its vertices,
				// a parent and its own child among them
				held := p.m.AllVertices()
				pa, pb := held[int(arg)%len(held)], held[int(arg/16)%len(held)]
				deliver(p, mint(int(arg), pa.Hash(), pb.Hash()))
			case 2: // any pooled vertex: duplicates, propagation, gaps
				deliver(p, pool[int(arg)%len(pool)])
			case 3: // a gap parent that never arrives, beside a pooled parent
				missing := hashx.Sum([]byte{arg, byte(ops), 0xfe})
				deliver(p, mint(int(arg), pool[int(arg)%len(pool)].Hash(), missing))
			case 4: // a same-hash copy under another pointer, forged or honest
				orig := pool[int(arg)%len(pool)]
				sig := append([]byte(nil), orig.Sig()...)
				if arg&0x80 != 0 {
					sig[int(arg)%len(sig)] ^= 0x20
				}
				deliver(p, orig.WithSig(sig))
			case 5: // a self-reference: a vertex whose hash is its parent's
				v := NewVertex(fuzzRing.Pair(0), 1<<40+uint64(ops), genesis.Hash(), genesis.Hash(), fuzzRing.Addr(1), 1)
				target := pool[int(arg)%len(pool)].Hash()
				v.ParentA, v.memoSelf, v.memoHash = target, v, target
				deliver(p, v)
			case 6: // a new gap limit
				p.tg.Parked().SetLimit(1 + int(arg%4))
				p.m.parked.SetLimit(1 + int(arg%4))
			case 7: // one replica's whole history offered to another
				src := reps[int(arg)%len(reps)]
				for _, v := range src.m.AllVertices() {
					deliver(p, v)
				}
			}
			for j, q := range reps {
				if err := q.agree(probes(), int64(ops)); err != nil {
					t.Fatalf("step %d (op %d), replica %d: %v", ops, data[i], j, err)
				}
			}
		}
	})
}
