package bitset

import (
	"math/rand"
	"testing"
)

// The set against a map over random adds and removes, ids spread across
// several words.
func TestSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Set
	model := map[uint32]bool{}
	for i := 0; i < 2000; i++ {
		id := uint32(rng.Intn(300))
		if rng.Intn(3) == 0 {
			s.Remove(id)
			delete(model, id)
		} else {
			s.Add(id)
			model[id] = true
		}
	}
	for id := uint32(0); id < 400; id++ {
		if s.Has(id) != model[id] {
			t.Fatalf("Has(%d) = %v, model %v", id, s.Has(id), model[id])
		}
	}
	if s.Count() != len(model) {
		t.Fatalf("Count = %d, model %d", s.Count(), len(model))
	}
	prev, n := -1, 0
	s.Each(func(id uint32) {
		if int(id) <= prev || !model[id] {
			t.Fatalf("Each yielded %d after %d", id, prev)
		}
		prev = int(id)
		n++
	})
	if n != len(model) {
		t.Fatalf("Each yielded %d ids, model %d", n, len(model))
	}
	var empty Set
	empty.Remove(5)
	if empty.Has(5) || empty.Count() != 0 {
		t.Fatal("the zero Set is not empty")
	}
}
