package keys

import (
	"crypto/ed25519"
	"testing"
	"unsafe"

	"repro/internal/hashx"
)

func TestDeterministicStable(t *testing.T) {
	a := Deterministic("alice")
	b := Deterministic("alice")
	if a.Address() != b.Address() {
		t.Fatal("same seed should derive same address")
	}
	if Deterministic("bob").Address() == a.Address() {
		t.Fatal("different seeds should derive different addresses")
	}
}

func TestSignVerify(t *testing.T) {
	kp := Deterministic("signer")
	msg := []byte("transfer 5 to bob")
	sig := kp.Sign(msg)
	if !Verify(kp.Pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(kp.Pub, []byte("transfer 500 to bob"), sig) {
		t.Fatal("signature verified for altered message")
	}
	other := Deterministic("other")
	if Verify(other.Pub, msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestVerifyMalformedInputs(t *testing.T) {
	kp := Deterministic("m")
	msg := []byte("msg")
	sig := kp.Sign(msg)
	if Verify(kp.Pub[:16], msg, sig) {
		t.Fatal("short public key should not verify")
	}
	if Verify(kp.Pub, msg, sig[:10]) {
		t.Fatal("short signature should not verify")
	}
	if Verify(nil, msg, nil) {
		t.Fatal("nil key/sig should not verify")
	}
}

func TestAddressOfMatchesKeyPair(t *testing.T) {
	kp := Deterministic("addr")
	if AddressOf(kp.Pub) != kp.Address() {
		t.Fatal("AddressOf(pub) != kp.Address()")
	}
}

func TestAddressBytesRoundTrip(t *testing.T) {
	a := Deterministic("rt").Address()
	back, err := AddressFromBytes(a.Bytes())
	if err != nil {
		t.Fatalf("AddressFromBytes: %v", err)
	}
	if back != a {
		t.Fatal("address byte round trip mismatch")
	}
	if _, err := AddressFromBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("short byte slice should be rejected")
	}
}

func TestAddressBytesIsCopy(t *testing.T) {
	a := Deterministic("copy").Address()
	raw := a.Bytes()
	raw[0] ^= 0xFF
	if raw[0] == a[0] {
		t.Fatal("mutating Bytes() result should not affect the address")
	}
}

func TestZeroAddress(t *testing.T) {
	if !ZeroAddress.IsZero() {
		t.Fatal("ZeroAddress.IsZero() = false")
	}
	if Deterministic("nonzero").Address().IsZero() {
		t.Fatal("derived address should not be zero")
	}
}

func TestRing(t *testing.T) {
	const n = 16
	r := NewRing("net", n)
	if r.Len() != n {
		t.Fatalf("Len() = %d, want %d", r.Len(), n)
	}
	seen := make(map[Address]bool, n)
	for i := 0; i < n; i++ {
		addr := r.Addr(i)
		if seen[addr] {
			t.Fatalf("duplicate address at index %d", i)
		}
		seen[addr] = true
		if r.Index(addr) != i {
			t.Fatalf("Index(Addr(%d)) = %d", i, r.Index(addr))
		}
		if r.Pair(i).Address() != addr {
			t.Fatalf("Pair(%d) address mismatch", i)
		}
	}
	if r.Index(Deterministic("stranger").Address()) != -1 {
		t.Fatal("foreign address should have index -1")
	}
}

func TestRingReproducible(t *testing.T) {
	a := NewRing("family", 4)
	b := NewRing("family", 4)
	for i := 0; i < 4; i++ {
		if a.Addr(i) != b.Addr(i) {
			t.Fatalf("ring not reproducible at index %d", i)
		}
	}
	c := NewRing("otherfamily", 4)
	if a.Addr(0) == c.Addr(0) {
		t.Fatal("different families should not share identities")
	}
}

func TestAddressesFreshSlice(t *testing.T) {
	r := NewRing("addrs", 3)
	addrs := r.Addresses()
	if len(addrs) != 3 {
		t.Fatalf("Addresses() length = %d", len(addrs))
	}
	addrs[0] = Address{}
	if r.Addr(0).IsZero() {
		t.Fatal("mutating Addresses() result must not affect the ring")
	}
}

func BenchmarkSign(b *testing.B) {
	kp := Deterministic("bench")
	msg := []byte("a 64-byte-ish payment message for signature benchmarking....")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kp.Sign(msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	kp := Deterministic("bench")
	msg := []byte("a 64-byte-ish payment message for signature benchmarking....")
	sig := kp.Sign(msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(kp.Pub, msg, sig) {
			b.Fatal("verify failed")
		}
	}
}

func TestVerifyBatch(t *testing.T) {
	msgs := make([][]byte, 40)
	jobs := make([]VerifyJob, 40)
	want := make([]bool, 40)
	for i := range jobs {
		kp := DeterministicN("batch", i)
		msgs[i] = []byte{byte(i), byte(i >> 8), 0xaa}
		sig := kp.Sign(msgs[i])
		jobs[i] = VerifyJob{Pub: kp.Pub, Msg: msgs[i], Sig: sig}
		want[i] = true
		switch i % 5 {
		case 1: // tampered signature
			jobs[i].Sig = append([]byte(nil), sig...)
			jobs[i].Sig[3] ^= 0x01
			want[i] = false
		case 2: // wrong key
			jobs[i].Pub = DeterministicN("batch", i+1).Pub
			want[i] = false
		case 3: // malformed sizes must not panic the pool
			jobs[i].Sig = sig[:10]
			want[i] = false
		}
	}
	for _, workers := range []int{0, 1, 3, 64} {
		got := VerifyBatch(jobs, workers)
		if len(got) != len(jobs) {
			t.Fatalf("workers=%d: %d verdicts for %d jobs", workers, len(got), len(jobs))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d job %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
	if out := VerifyBatch(nil, 4); len(out) != 0 {
		t.Fatalf("empty batch returned %d verdicts", len(out))
	}
}

// signed is the shape every signed object has: an owner, content, a key
// and a signature, with the memo embedded by value.
type signed struct {
	owner   Address
	content byte
	pub     ed25519.PublicKey
	sig     []byte
	memo    SigMemo
}

func (s *signed) digest() hashx.Hash { return hashx.Sum([]byte{s.content}) }

// deferSign signs s with kp, reading nothing: no bytes exist yet.
func (s *signed) deferSign(kp *KeyPair) {
	s.pub, s.sig = kp.Pub, nil
	kp.SignMemo(&s.memo, s.owner, s.digest())
}

// sign signs s with kp and reads the signature at once.
func (s *signed) sign(kp *KeyPair) {
	s.deferSign(kp)
	s.read()
}

func (s *signed) read() []byte { return s.memo.Sig(&s.sig) }

func (s *signed) verify() bool { return s.memo.Verify(s.owner, s.digest(), s.pub, &s.sig) }

func (s *signed) hit() bool { return s.memo.Hit(s.owner, s.digest(), s.pub, s.sig) }

// cold is the verdict with no memo anywhere: the binding check and
// ed25519 on the bytes a read returns and the other fields as they
// stand. It reads a copy, so s stays as it is, read or not.
func (s *signed) cold() bool {
	cp := *s
	d := cp.digest()
	return AddressOf(cp.pub) == cp.owner && Verify(cp.pub, d[:], cp.read())
}

// The memo answers only for the owner, digest, key and signature it
// stored, and only at the address it stored them from: the zero value,
// any changed input and a copy embedded in a copied parent all miss.
func TestSigMemo(t *testing.T) {
	kp, other := Deterministic("memo"), Deterministic("memo-other")
	a := &signed{owner: kp.Address(), content: 1, pub: kp.Pub}
	a.sig = kp.Sign([]byte("placeholder"))
	if a.hit() {
		t.Fatal("empty memo hit")
	}
	if a.verify() || a.hit() {
		t.Fatal("a failed check verified or left a memo")
	}
	d := a.digest()
	a.sig = kp.Sign(d[:])
	before := Verifies()
	if !a.verify() || !a.hit() || Verifies() != before+1 {
		t.Fatalf("cold check: hit %v, %d ed25519 calls, want a stored verdict after 1", a.hit(), Verifies()-before)
	}
	if !a.verify() || Verifies() != before+1 {
		t.Fatal("second check of the same inputs reached ed25519")
	}

	b := *a
	if b.hit() {
		t.Fatal("copied parent rides the original's memo")
	}
	if !b.verify() || !b.hit() || !a.hit() {
		t.Fatal("copy and original memos are not independent")
	}

	for name, mutate := range map[string]func(s *signed){
		"owner":        func(s *signed) { s.owner = other.Address() },
		"content":      func(s *signed) { s.content++ },
		"key":          func(s *signed) { s.pub = other.Pub },
		"short key":    func(s *signed) { s.pub = s.pub[:31] },
		"sig byte":     func(s *signed) { s.sig[63] ^= 1 },
		"sig slice":    func(s *signed) { s.sig = other.Sign(d[:]) },
		"short sig":    func(s *signed) { s.sig = s.sig[:63] },
		"sig plus one": func(s *signed) { s.sig = append(s.sig[:64:64], 0) },
	} {
		c := &signed{owner: kp.Address(), content: 1}
		c.sign(kp)
		if !c.hit() {
			t.Fatalf("%s: signing did not seed the memo", name)
		}
		mutate(c)
		if c.hit() || c.verify() || c.cold() {
			t.Fatalf("%s: hit %v verify %v cold %v after the change, want all false", name, c.hit(), c.verify(), c.cold())
		}
	}
}

// SignMemo makes no signature: the bound verdict answers without the
// bytes, the first read makes them once — over the digest SignMemo was
// handed — into an array of the object's own, and a struct copy of an
// unread object makes its own on its own first read.
func TestSignMemoDefersTheBytes(t *testing.T) {
	kp, other := Deterministic("defer"), Deterministic("defer-other")
	signs, verifies := Signs(), Verifies()
	s := &signed{owner: kp.Address(), content: 3}
	s.deferSign(kp)
	if !s.hit() || !s.verify() || s.sig != nil {
		t.Fatal("an unread object signed by its owner does not ride its memo")
	}
	if n, m := Signs()-signs, Verifies()-verifies; n != 0 || m != 0 {
		t.Fatalf("signing and checking an unread object ran ed25519 %d+%d times, want 0", n, m)
	}

	cp := *s
	sig := s.read()
	d := s.digest()
	if Signs()-signs != 1 || !Verify(kp.Pub, d[:], sig) || !s.hit() {
		t.Fatal("the first read did not make the owner's signature once")
	}
	if &s.read()[0] != &sig[0] || Signs()-signs != 1 {
		t.Fatal("a second read made the bytes again")
	}
	if &s.memo.sig[0] == &sig[0] {
		t.Fatal("the object's bytes alias the memo's")
	}
	if cp.sig != nil || cp.hit() || !cp.verify() || &cp.sig[0] == &sig[0] || Signs()-signs != 2 {
		t.Fatal("a copy of the unread object did not make and check its own bytes")
	}

	// The digest is frozen at signing: content changed before the first
	// read fails, and the bytes still sign the digest signed.
	c := &signed{owner: kp.Address(), content: 3}
	c.deferSign(kp)
	c.content++
	if c.hit() || c.verify() || c.cold() {
		t.Fatal("content changed after signing still verifies")
	}
	if !Verify(kp.Pub, d[:], c.sig) {
		t.Fatal("the bytes do not sign the digest SignMemo was handed")
	}

	// An unread object's memo vouches for no bytes it did not make.
	f := &signed{owner: kp.Address(), content: 3}
	f.deferSign(kp)
	f.sig = other.Sign(d[:])
	if f.hit() || f.verify() {
		t.Fatal("foreign bytes beside an unread memo were accepted")
	}
}

// Signing seeds the verdict a verifier would reach, and only that one: a
// signer that does not own the account seeds nothing, and the seed names
// the key the signature was made with, whatever Pub says.
func TestSignMemoSeedsOnlyTheOwnersVerdict(t *testing.T) {
	kp, other := Deterministic("seed"), Deterministic("seed-other")

	s := &signed{owner: kp.Address(), content: 7}
	before := Verifies()
	s.sign(kp)
	if !s.verify() || Verifies() != before {
		t.Fatal("a freshly signed object was verified by ed25519")
	}

	stranger := &signed{owner: kp.Address(), content: 7}
	stranger.sign(other)
	if stranger.hit() || stranger.verify() {
		t.Fatal("a signature by a key that does not own the account was seeded or accepted")
	}

	// Pub is an exported field: a caller can point it at another key.
	fake := *kp
	fake.Pub = other.Pub
	swapped := &signed{owner: kp.Address(), content: 7}
	swapped.sign(&fake)
	if swapped.hit() || swapped.verify() || swapped.cold() {
		t.Fatal("an object carrying a key other than the signing one was seeded or accepted")
	}
	// With the right key back in place it is the seeded object.
	swapped.pub = kp.Pub
	if !swapped.hit() {
		t.Fatal("the seed does not name the public half of the private key")
	}

	// A stranger's key pair handing out the owner's key re-signs an
	// object the owner had signed: the owner's verdict must not survive
	// into the stranger's bytes.
	impostor := *other
	impostor.Pub = kp.Pub
	resigned := &signed{owner: kp.Address(), content: 7}
	resigned.deferSign(kp)
	resigned.deferSign(&impostor)
	if resigned.hit() || resigned.verify() || resigned.cold() {
		t.Fatal("the owner's verdict outlived a re-signing by a stranger")
	}
}

// SigMemo is embedded in every signed object: deferring the bytes costs
// it one word, the signer.
func TestSigMemoSize(t *testing.T) {
	word := unsafe.Sizeof(uintptr(0))
	if got, want := unsafe.Sizeof(SigMemo{}), 3*word+hashx.Size+ed25519.SignatureSize; got != want {
		t.Fatalf("SigMemo is %d bytes, want %d", got, want)
	}
}
