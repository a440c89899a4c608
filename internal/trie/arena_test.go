package trie

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/hashx"
)

// An arena-backed trie, frozen or thawed, must be observationally
// identical to a plain one through an arbitrary interleaving of puts,
// overwrites and deletes: same roots at every step, same items, same
// counts. The arena batches allocations and a thawed trie rewrites what
// it owns in place; neither may change structure. The thawed trie is
// frozen and thawed again now and then, so it also writes over nodes an
// earlier generation stamped.
func TestArenaEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	plain, backed, owned := Empty(), EmptyArena(), EmptyArena().Thaw()
	key := func(i int) []byte { return []byte{0x0A, byte(i), byte(i >> 8), byte(3 * i)} }
	for step := 0; step < 4000; step++ {
		i := rng.Intn(300)
		if rng.Intn(5) == 0 {
			plain = plain.Delete(key(i))
			backed = backed.Delete(key(i))
			owned = owned.Delete(key(i))
		} else {
			v := []byte{byte(step), byte(step >> 8), byte(i)}
			plain = plain.Put(key(i), v)
			backed = backed.Put(key(i), v)
			owned = owned.Put(key(i), v)
		}
		if rng.Intn(100) == 0 {
			owned = owned.Freeze().Thaw()
		}
		if plain.Root() != backed.Root() || plain.Root() != owned.Root() {
			t.Fatalf("roots diverged at step %d: %v vs %v vs %v", step, plain.Root(), backed.Root(), owned.Root())
		}
		if plain.Len() != backed.Len() || plain.Len() != owned.Len() {
			t.Fatalf("counts diverged at step %d: %d vs %d vs %d", step, plain.Len(), backed.Len(), owned.Len())
		}
	}
	pi := plain.Items()
	for _, other := range []*Trie{backed, owned} {
		oi := other.Items()
		if len(pi) != len(oi) {
			t.Fatalf("item counts differ: %d vs %d", len(pi), len(oi))
		}
		for i := range pi {
			if !bytes.Equal(pi[i].Key, oi[i].Key) || !bytes.Equal(pi[i].Value, oi[i].Value) {
				t.Fatalf("item %d differs: %v vs %v", i, pi[i], oi[i])
			}
		}
	}
}

// A thawed trie changes in place: once a write has copied the path to a
// key, overwriting that key allocates nothing — no *Trie, no node — where
// a frozen trie allocates a new trie and a new path per write.
func TestThawedPutAllocatesNothing(t *testing.T) {
	base := EmptyArena()
	for i := 0; i < 64; i++ {
		base = base.Put([]byte{0x0A, byte(i), 7}, []byte{byte(i)})
	}
	key, v := []byte{0x0A, 5, 7}, []byte{1, 2, 3, 4, 5, 6, 7, 8}
	owned := base.Thaw()
	if owned.Put(key, v) != owned {
		t.Fatal("a thawed trie's Put returned another trie")
	}
	if n := testing.AllocsPerRun(1000, func() { owned.Put(key, v) }); n != 0 {
		t.Fatalf("overwriting an owned key allocates %.1f times per Put", n)
	}
	if n := testing.AllocsPerRun(1000, func() { base.Put(key, v) }); n < 1 {
		t.Fatalf("a frozen trie's Put allocates %.1f times: it must copy", n)
	}
	if got, _ := base.Get(key); !bytes.Equal(got, []byte{5}) {
		t.Fatalf("the trie Thaw was called on changed: %v", got)
	}
}

// Old versions of an arena-backed lineage stay readable after later
// mutations — copy-on-write must survive the slab allocation.
func TestArenaSnapshotsStable(t *testing.T) {
	cur := EmptyArena()
	var snaps []*Trie
	var roots []hashx.Hash
	for i := 0; i < 200; i++ {
		cur = cur.Put([]byte{byte(i), byte(i * 7)}, []byte{byte(i)})
		snaps = append(snaps, cur)
		roots = append(roots, cur.Root())
	}
	for i, s := range snaps {
		if s.Root() != roots[i] {
			t.Fatalf("snapshot %d root changed after later puts", i)
		}
		if v, ok := s.Get([]byte{byte(i), byte(i * 7)}); !ok || v[0] != byte(i) {
			t.Fatalf("snapshot %d lost its newest key", i)
		}
		if s.Len() != i+1 {
			t.Fatalf("snapshot %d count = %d, want %d", i, s.Len(), i+1)
		}
	}
}

// Mutating the caller's value slice after Put must not leak into an
// arena-backed trie (the Put-copies contract), and an empty value must
// stay distinguishable from an absent key.
func TestArenaValueIsolation(t *testing.T) {
	tr := EmptyArena()
	v := []byte{1, 2, 3}
	tr = tr.Put([]byte("k"), v)
	v[0] = 99
	got, ok := tr.Get([]byte("k"))
	if !ok || got[0] != 1 {
		t.Fatalf("caller mutation leaked into the trie: %v", got)
	}
	tr = tr.Put([]byte("empty"), nil)
	if got, ok := tr.Get([]byte("empty")); !ok || got == nil || len(got) != 0 {
		t.Fatalf("empty value not stored as present-and-empty: %v ok=%v", got, ok)
	}
	if _, ok := tr.Get([]byte("absent")); ok {
		t.Fatal("absent key reads as present")
	}
}

// Keys longer than the stack nibble buffer fall back to heap expansion
// and must still round-trip on both backends.
func TestArenaLongKeys(t *testing.T) {
	long := bytes.Repeat([]byte{0xAB, 0xCD}, 40) // 80 bytes > nibbleBuf/2
	for _, tr := range []*Trie{Empty(), EmptyArena()} {
		tr = tr.Put(long, []byte("v"))
		if got, ok := tr.Get(long); !ok || string(got) != "v" {
			t.Fatalf("long key lost: %q ok=%v", got, ok)
		}
		tr = tr.Delete(long)
		if _, ok := tr.Get(long); ok {
			t.Fatal("long key survived delete")
		}
	}
}
