package catalog

import (
	"encoding/binary"
	"testing"

	"repro/internal/hashx"
)

// id is a named id type, as the ledgers use.
type id uint32

// entry stands for a ledger's catalog entry.
type entry struct {
	n      uint64
	parent id
}

// object stands for a ledger object: its content, by hash, and the id
// memo it carries.
type object struct {
	h    hashx.Hash
	memo Memo
}

// hashN is the content hash of the n-th object the fuzzer makes.
func hashN(n int) hashx.Hash {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(n))
	return hashx.Sum(b[:])
}

// FuzzCatalog drives a Catalog, its Index and an Own override against a
// map-plus-slice model. Each byte pair is one step: Intern a new or a
// known hash, Add a new object or fill one the index has already handed
// an id, ask ID of a known or an unknown hash, read At, Keep a pointer
// (the shared one or another), Get, or drop an override as a mempool
// does on removal. Memo steps make objects, of a known hash or a new one,
// and intern them through their memos in the catalog's index or in a
// second one; copy an object by value, its memo poisoned with a wrong id
// or its content changed after copying; and Lookup an object in the
// catalog. One object interned alternately in the two indexes must get
// each index's id, a copy must never read the memo it was copied with,
// and a mutated copy must get its own hash's id. After every step ids
// must run densely from 1 in first sight order across Intern, InternMemo
// and Add, with none ever handed out twice, and Lookup hands out none;
// ID must answer 0 for an unknown hash and for an interned id whose entry
// is not filled, and the id for a filled one; Lookup must answer the
// index id, 0 for an unknown hash, with the entry, zero until filled; Add
// must fill an interned id without handing out a new one; At must return
// every earlier entry unchanged however many steps came since; and the
// override must agree with its model and stay nil until the first Keep
// of a pointer other than the shared one.
func FuzzCatalog(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 4, 1, 5, 1, 3, 0})
	f.Add([]byte{0, 0, 4, 0, 4, 9, 5, 0, 6, 0, 5, 0, 2, 7})
	f.Add([]byte{0, 0, 4, 16, 5, 0, 0, 3, 4, 1, 6, 1, 5, 1})
	f.Add([]byte{7, 0, 7, 2, 0, 1, 7, 0, 0, 3, 1, 0, 7, 5, 0, 1, 3, 1})
	// Memo steps; an arg with the high bit set interns in the second
	// index, or changes a copy's content.
	f.Add([]byte{7, 0, 8, 0, 9, 1, 9, 0x81, 9, 1, 9, 0x81, 0, 1, 11, 1})
	f.Add([]byte{7, 0, 8, 1, 9, 0, 10, 0, 9, 1, 0, 1, 11, 1, 10, 0x80, 11, 2, 9, 2, 11, 2})
	f.Add([]byte{8, 0, 9, 0x80, 7, 0, 9, 0, 11, 0, 0, 1, 11, 0, 8, 0, 9, 0x81, 11, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		c := New[id, entry]()
		x := c.Index()
		other := New[id, entry]()
		y := other.Index() // another network's index
		var own Own[id, *int]
		var (
			hashes  []hashx.Hash    // model: id-1 -> hash
			filled  []bool          // model: id-1 -> entry written
			entries []entry         // model: id-1 -> entry
			over    = map[id]*int{} // model of own
			ptrs    = [3]*int{new(int), new(int), new(int)}
			alloc   bool      // a differing Keep has happened
			unknown = 1 << 20 // hashes from here on are never seen
			fresh   = 1 << 30 // new object hashes, from here on
			objs    []*object
			yHashes []hashx.Hash // model of y: id-1 -> hash
		)
		// idIn returns h's id in the model of index x or y, 0 if unseen.
		idIn := func(hs []hashx.Hash, h hashx.Hash) id {
			for j, k := range hs {
				if k == h {
					return id(j + 1)
				}
			}
			return 0
		}
		// obj returns the object arg picks, nil if there is none.
		obj := func(arg byte) *object {
			if len(objs) == 0 {
				return nil
			}
			return objs[int(arg)%len(objs)]
		}
		// shared is the pointer the catalog's entry would hold for i.
		shared := func(i id) *int { return ptrs[int(i)%len(ptrs)] }
		// choose returns an interned id chosen by arg whose entry is
		// filled or not as asked, 0 if there is none.
		choose := func(arg byte, full bool) id {
			var ids []id
			for j, ok := range filled {
				if ok == full {
					ids = append(ids, id(j+1))
				}
			}
			if len(ids) == 0 {
				return 0
			}
			return ids[int(arg)%len(ids)]
		}
		pick := func(arg byte) id { return choose(arg, true) }
		add := func(i id, arg byte) {
			e := entry{n: uint64(arg), parent: pick(arg)}
			if got := c.Add(hashes[i-1], e); got != i {
				t.Fatalf("Add handed out id %d, want %d", got, i)
			}
			filled[i-1], entries[i-1] = true, e
		}
		see := func() id { // first sight of a new hash, in the model
			hashes = append(hashes, hashN(len(hashes)))
			filled, entries = append(filled, false), append(entries, entry{})
			return id(len(hashes))
		}
		for len(prog) >= 2 {
			op, arg := prog[0], prog[1]
			prog = prog[2:]
			switch op % 12 {
			case 0: // add a new object, or fill an interned one
				i := choose(arg, false)
				if arg%2 == 0 || i == 0 {
					i = see()
				}
				add(i, arg)
			case 1: // ID of a filled hash
				if i := pick(arg); i != 0 {
					if got := c.ID(hashes[i-1]); got != i {
						t.Fatalf("ID = %d, want %d", got, i)
					}
				}
			case 2: // ID of an unknown hash
				unknown++
				if got := c.ID(hashN(unknown)); got != 0 {
					t.Fatalf("ID of an unknown hash = %d, want 0", got)
				}
			case 3: // At
				i := pick(arg)
				want := entry{}
				if i != 0 {
					want = entries[i-1]
				}
				if got := *c.At(i); got != want {
					t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
				}
			case 4: // Keep the shared pointer or another
				i := pick(arg)
				mine := ptrs[int(arg>>4)%len(ptrs)]
				own.Keep(i, mine, shared(i))
				if mine != shared(i) {
					over[i], alloc = mine, true
				}
			case 5: // Get
				i := pick(arg)
				want, ok := over[i]
				if !ok {
					want = shared(i)
				}
				if got := own.Get(i, shared(i)); got != want {
					t.Fatalf("Get(%d) = %p, want %p", i, got, want)
				}
			case 6: // drop an override
				i := pick(arg)
				delete(own, i)
				delete(over, i)
			case 7: // Intern a new hash, or a known one again
				var want id
				if arg%2 == 0 || len(hashes) == 0 {
					want = see()
				} else {
					want = id(1 + int(arg/2)%len(hashes))
				}
				if got := id(x.Intern(hashes[want-1])); got != want {
					t.Fatalf("Intern handed out id %d, want %d", got, want)
				}
			case 8: // make an object of a known hash or a new one
				o := &object{}
				if arg%2 == 0 || len(hashes) == 0 {
					fresh++
					o.h = hashN(fresh)
				} else {
					o.h = hashes[int(arg/2)%len(hashes)]
				}
				objs = append(objs, o)
			case 9: // intern an object through its memo, in x or in y
				o := obj(arg)
				if o == nil {
					break
				}
				if arg&0x80 == 0 {
					want := idIn(hashes, o.h)
					if want == 0 {
						hashes = append(hashes, o.h)
						filled, entries = append(filled, false), append(entries, entry{})
						want = id(len(hashes))
					}
					if got := id(x.InternMemo(&o.memo, o.h)); got != want {
						t.Fatalf("InternMemo in x = %d, want %d", got, want)
					}
				} else {
					want := idIn(yHashes, o.h)
					if want == 0 {
						yHashes = append(yHashes, o.h)
						want = id(len(yHashes))
					}
					if got := id(y.InternMemo(&o.memo, o.h)); got != want {
						t.Fatalf("InternMemo in y = %d, want %d", got, want)
					}
				}
			case 10: // copy an object by value: memo poisoned, or content changed
				o := obj(arg)
				if o == nil {
					break
				}
				cp := new(object)
				*cp = *o
				if arg&0x80 == 0 {
					cp.memo.id ^= 0x5a5a // what the copy must never read
				} else {
					fresh++
					cp.h = hashN(fresh)
				}
				objs = append(objs, cp)
			case 11: // Lookup an object in the catalog
				o := obj(arg)
				if o == nil {
					break
				}
				want, wantE := idIn(hashes, o.h), entry{}
				if want != 0 && filled[want-1] {
					wantE = entries[want-1]
				}
				if got, e := c.Lookup(&o.memo, o.h); got != want || *e != wantE {
					t.Fatalf("Lookup = %d, %+v, want %d, %+v", got, *e, want, wantE)
				}
			}
			for j, h := range yHashes {
				if got := id(y.Intern(h)); got != id(j+1) {
					t.Fatalf("Intern in y of object %d = %d, want %d", j, got, j+1)
				}
			}
			for j, h := range hashes {
				want := id(j + 1)
				if got := id(x.Intern(h)); got != want {
					t.Fatalf("Intern of object %d = %d, want %d", j, got, want)
				}
				if !filled[j] {
					want = 0
				}
				if got := c.ID(h); got != want {
					t.Fatalf("ID of object %d = %d, want %d (filled %v)", j, got, want, filled[j])
				}
				if filled[j] {
					if got := *c.At(id(j + 1)); got != entries[j] {
						t.Fatalf("At(%d) = %+v, want %+v", j+1, got, entries[j])
					}
				}
			}
			if (own == nil) == alloc {
				t.Fatalf("override nil = %v after a differing Keep = %v", own == nil, alloc)
			}
			if len(own) != len(over) {
				t.Fatalf("override holds %d ids, model %d", len(own), len(over))
			}
			for i, p := range over {
				if own[i] != p {
					t.Fatalf("override of %d = %p, want %p", i, own[i], p)
				}
			}
		}
	})
}
