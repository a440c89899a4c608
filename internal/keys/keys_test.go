package keys

import (
	"testing"

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

// The memo answers only for the digest it stored, and only at the
// address it stored it from: the zero value, another digest and a copy
// embedded in a copied parent all miss.
func TestVerifyMemo(t *testing.T) {
	type signed struct {
		payload byte
		memo    VerifyMemo
	}
	d1, d2 := hashx.Sum([]byte("one")), hashx.Sum([]byte("two"))
	a := &signed{payload: 1}
	if a.memo.Hit(d1) || a.memo.Hit(hashx.Hash{}) {
		t.Fatal("empty memo hit")
	}
	a.memo.Store(d1)
	if !a.memo.Hit(d1) {
		t.Fatal("stored digest missed")
	}
	if a.memo.Hit(d2) {
		t.Fatal("memo hit for a digest it never stored")
	}
	b := *a
	if b.memo.Hit(d1) {
		t.Fatal("copied parent rides the original's memo")
	}
	b.memo.Store(d2)
	if !b.memo.Hit(d2) || !a.memo.Hit(d1) || a.memo.Hit(d2) {
		t.Fatal("copy and original memos are not independent")
	}
}
