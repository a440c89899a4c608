package keys

import "testing"

// FuzzSigMemo drives one signed object through a random sequence of
// signings (seeding the memo), deferred signings and first reads,
// checks, in-place and whole-field changes and struct copies, of read
// and unread objects. After every step the memo's verdict — asked
// twice, so a verdict wrongly stored by the first answer shows in the
// second — must equal binding check plus ed25519 on the bytes a read
// returns and the other fields as they stand, and a memo hit must never
// outlive a valid signature.
func FuzzSigMemo(f *testing.F) {
	f.Add([]byte{0, 2, 3, 7, 2, 3, 7, 2}, byte(1))        // sign, check, flip bit, check, flip it back, check
	f.Add([]byte{0, 5, 2, 4, 2, 4, 2}, byte(2))           // sign, copy, check, swap key and back
	f.Add([]byte{1, 2, 0, 6, 2, 8, 2, 7, 2}, byte(3))     // stranger signs, owner signs, content, owner, truncate
	f.Add([]byte{9, 2, 0, 2, 10, 2, 5, 3, 200}, byte(4))  // foreign Pub, re-sign, replace slice, copy, flip
	f.Add([]byte{11, 2, 6, 2, 6, 12, 2}, byte(5))         // deferred sign, check, content changed and back, read
	f.Add([]byte{13, 12, 3, 9, 2, 11, 5, 12, 2}, byte(6)) // copy of an unread object, read, flip; again
	f.Add([]byte{11, 14, 1, 2, 11, 14, 0, 2}, byte(7))    // deferred sign, stranger's bytes; deferred sign, owner's bytes
	f.Fuzz(func(t *testing.T, ops []byte, content byte) {
		owner, other := Deterministic("fuzz-owner"), Deterministic("fuzz-other")
		foreign := *owner
		foreign.Pub = other.Pub // signs as owner, hands out other's key

		s := &signed{owner: owner.Address(), content: content}
		for i := 0; i < len(ops); i++ {
			op := ops[i] % 15
			switch op {
			case 0:
				s.sign(owner)
			case 1:
				s.sign(other)
			case 2:
				// Checked after every step anyway.
			case 3: // the same two bytes again restore the bit
				if i+1 < len(ops) && len(s.sig) > 0 {
					i++
					s.sig[int(ops[i])%len(s.sig)] ^= 1 << (ops[i] % 8)
				}
			case 4:
				if len(s.pub) > 0 && &s.pub[0] == &owner.Pub[0] {
					s.pub = other.Pub
				} else {
					s.pub = owner.Pub
				}
			case 5:
				cp := *s
				s = &cp
			case 6:
				s.content++
			case 7:
				if len(s.sig) > 0 {
					s.sig = s.sig[:len(s.sig)-1]
				}
			case 8:
				if s.owner == owner.Address() {
					s.owner = other.Address()
				} else {
					s.owner = owner.Address()
				}
			case 9:
				s.sign(&foreign)
			case 10:
				s.sig = append([]byte(nil), s.sig...)
			case 11:
				s.deferSign(owner)
			case 12:
				s.read()
			case 13: // a struct copy of an object nothing has read
				s.deferSign(owner)
				cp := *s
				s = &cp
			case 14: // bytes written beside an unread memo, by either key
				if s.sig == nil && i+1 < len(ops) {
					i++
					d, kp := s.digest(), owner
					if ops[i]%2 == 1 {
						kp = other
					}
					s.sig = kp.Sign(d[:])
				}
			}
			cold := s.cold()
			if s.hit() && !cold {
				t.Fatalf("step %d (op %d): memo vouches for an object that does not verify", i, op)
			}
			for n := 0; n < 2; n++ {
				if got := s.verify(); got != cold {
					t.Fatalf("step %d (op %d), check %d: memo verdict %v, cold verdict %v", i, op, n+1, got, cold)
				}
			}
		}
	})
}
