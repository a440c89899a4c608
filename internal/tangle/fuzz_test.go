package tangle

// FuzzTangleTipSelection: the tangle's contract is that any vertex
// stream — tip-selected approvals interleaved with out-of-order
// arrivals, duplicates, unknown-parent orphans and corrupted
// signatures — never panics, never orphans a confirmed vertex, and
// keeps confirmation closed over ancestry (a confirmed vertex's parents
// are attached and confirmed) and monotone (nothing is reported
// confirmed twice, nothing ever reverts). The fuzzer drives both the
// op mix and the delivery order from raw bytes so coverage feedback
// explores the interleavings gossip reordering produces.

import (
	"math/rand"
	"testing"

	"repro/internal/hashx"
	"repro/internal/keys"
)

// fuzzTangleAccounts keeps key generation cheap per exec.
const fuzzTangleAccounts = 3

var fuzzRing = keys.NewRing("tangle-fuzz", fuzzTangleAccounts)

// buildVertexStream turns fuzz bytes into a delivery stream. A builder
// tangle tracks the valid view so generated vertices approve real tips;
// the stream also carries vertices the builder would reject or park.
func buildVertexStream(data []byte) (*Vertex, []*Vertex) {
	gen := Genesis(fuzzRing.Pair(0), 1_000)
	builder, err := New(gen, 3)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(11))
	seq := uint64(0)
	var stream []*Vertex
	const maxOps = 32
	ops := 0
	for i := 0; i+1 < len(data) && ops < maxOps; i += 2 {
		ops++
		op, arg := data[i]%4, data[i+1]
		seq++
		who := int(arg) % fuzzTangleAccounts
		switch op {
		case 0, 1: // valid vertex on the builder's current tips
			pa, pb := builder.SelectTips(rng)
			v := NewVertex(fuzzRing.Pair(who), seq, pa, pb, fuzzRing.Addr(0), 1)
			builder.Attach(v)
			stream = append(stream, v)
		case 2: // orphan: approve a parent that does not exist
			missing := hashx.Sum([]byte{arg, byte(i), 0xfe})
			pa, _ := builder.SelectTips(rng)
			v := NewVertex(fuzzRing.Pair(who), seq, pa, missing, fuzzRing.Addr(0), 1)
			stream = append(stream, v)
		case 3: // duplicate or corrupted copy of an earlier vertex
			if len(stream) == 0 {
				continue
			}
			orig := stream[int(arg)%len(stream)]
			if arg%2 == 0 {
				stream = append(stream, orig)
			} else {
				sig := append([]byte(nil), orig.Sig()...)
				sig[int(arg)%len(sig)] ^= 0x20
				stream = append(stream, orig.WithSig(sig))
			}
		}
	}
	return gen, stream
}

func FuzzTangleTipSelection(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 3, 2, 4, 3, 5}, uint8(0))
	f.Add([]byte{2, 9, 0, 1, 2, 7, 3, 2, 0, 0, 1, 1}, uint8(3))
	f.Add([]byte{3, 4, 3, 5, 0, 0, 0, 1, 2, 2, 2, 3}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, shuffle uint8) {
		gen, stream := buildVertexStream(data)
		tg, err := New(gen, 3)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		tg.Parked().SetLimit(8)
		// Deliver in a fuzz-chosen order: gossip does not preserve issue
		// order, and parking must absorb whatever arrives early.
		order := make([]int, len(stream))
		for i := range order {
			order[i] = i
		}
		perm := rand.New(rand.NewSource(int64(shuffle)))
		perm.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		confirmed := map[hashx.Hash]bool{gen.Hash(): true}
		for _, idx := range order {
			res := tg.Attach(stream[idx])
			for _, id := range res.Confirmed {
				h := tg.HashOf(id)
				if confirmed[h] {
					t.Fatalf("vertex %x reported confirmed twice", h[:4])
				}
				confirmed[h] = true
			}
		}
		// Nothing reported confirmed may ever be orphaned or revert.
		for h := range confirmed {
			if !tg.Has(h) {
				t.Fatalf("confirmed vertex %x orphaned", h[:4])
			}
			if !tg.Confirmed(h) {
				t.Fatalf("confirmed vertex %x reverted", h[:4])
			}
		}
		// And the replica's own view must agree: coverage closed over
		// ancestry, counts consistent.
		count := 0
		for _, v := range tg.AllVertices() {
			h := v.Hash()
			if tg.Confirmed(h) {
				count++
				for _, p := range [2]hashx.Hash{v.ParentA, v.ParentB} {
					if p == hashx.Zero {
						continue
					}
					if !tg.Has(p) || !tg.Confirmed(p) {
						t.Fatalf("confirmed vertex %x has unconfirmed parent %x", h[:4], p[:4])
					}
				}
			}
		}
		if count != tg.ConfirmedCount() {
			t.Fatalf("ConfirmedCount = %d, flags say %d", tg.ConfirmedCount(), count)
		}
	})
}
