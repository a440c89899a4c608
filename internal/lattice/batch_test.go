package lattice

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/hashx"
	"repro/internal/keys"
)

// buildWorkload records a valid block stream against a scratch lattice:
// the genesis account opens n-1 accounts, then random sends and receives
// circulate value. Returned blocks are in creation (dependency) order.
func buildWorkload(t *testing.T, ring *keys.Ring, n, transfers int, seed int64) []*Block {
	t.Helper()
	oracle, _, err := New(ring.Pair(0), 1<<30, 0)
	if err != nil {
		t.Fatal(err)
	}
	var stream []*Block
	apply := func(b *Block) {
		t.Helper()
		if res := oracle.Process(b); res.Status != Accepted {
			t.Fatalf("oracle rejected workload block: %v (%v)", res.Status, res.Err)
		}
		stream = append(stream, b)
	}
	share := uint64(1<<30) / uint64(n)
	for i := 1; i < n; i++ {
		send, err := oracle.NewSend(ring.Pair(0), ring.Addr(i), share)
		if err != nil {
			t.Fatal(err)
		}
		apply(send)
		open, err := oracle.NewOpen(ring.Pair(i), send.Hash(), ring.Addr(i%4))
		if err != nil {
			t.Fatal(err)
		}
		apply(open)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < transfers; i++ {
		from := rng.Intn(n)
		to := (from + 1 + rng.Intn(n-1)) % n
		amount := uint64(1 + rng.Intn(50))
		if oracle.Balance(ring.Addr(from)) < amount {
			continue
		}
		send, err := oracle.NewSend(ring.Pair(from), ring.Addr(to), amount)
		if err != nil {
			t.Fatal(err)
		}
		apply(send)
		recv, err := oracle.NewReceive(ring.Pair(to), send.Hash())
		if err != nil {
			t.Fatal(err)
		}
		apply(recv)
	}
	return stream
}

// stateFingerprint captures everything the batch contract promises to be
// schedule-independent.
type stateFingerprint struct {
	accounts, blocks, pending, gaps int
	balances                        map[keys.Address]uint64
	heads                           map[keys.Address]hashx.Hash
}

func fingerprint(l *Lattice, ring *keys.Ring) stateFingerprint {
	fp := stateFingerprint{
		accounts: l.Accounts(),
		blocks:   l.BlockCount(),
		pending:  l.PendingCount(),
		gaps:     l.GapCount(),
		balances: make(map[keys.Address]uint64),
		heads:    make(map[keys.Address]hashx.Hash),
	}
	for i := 0; i < ring.Len(); i++ {
		addr := ring.Addr(i)
		fp.balances[addr] = l.Balance(addr)
		if h, ok := l.Head(addr); ok {
			fp.heads[addr] = h
		}
	}
	return fp
}

func equalFingerprints(a, b stateFingerprint) bool {
	if a.accounts != b.accounts || a.blocks != b.blocks || a.pending != b.pending || a.gaps != b.gaps {
		return false
	}
	for addr, bal := range a.balances {
		if b.balances[addr] != bal {
			return false
		}
	}
	for addr, h := range a.heads {
		if b.heads[addr] != h {
			return false
		}
	}
	return true
}

// The batch contract: for any worker count, ProcessBatch converges to the
// exact state a serial Process loop produces.
func TestProcessBatchMatchesSerial(t *testing.T) {
	ring := keys.NewRing("batch-parity", 16)
	stream := buildWorkload(t, ring, 16, 120, 99)

	serial, _, err := New(ring.Pair(0), 1<<30, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stream {
		if res := serial.Process(b); res.Status == Rejected {
			t.Fatalf("serial rejected: %v", res.Err)
		}
	}
	if err := serial.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(serial, ring)

	for _, workers := range []int{1, 2, 4, 8} {
		batch, _, err := New(ring.Pair(0), 1<<30, 0)
		if err != nil {
			t.Fatal(err)
		}
		results := batch.ProcessBatch(stream, workers)
		for i, res := range results {
			if res.Status == Rejected {
				t.Fatalf("workers=%d block %d rejected: %v", workers, i, res.Err)
			}
		}
		if err := batch.CheckInvariant(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := fingerprint(batch, ring); !equalFingerprints(got, want) {
			t.Fatalf("workers=%d state diverged from serial:\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

// Tampered blocks in a batch must be rejected without poisoning the
// valid remainder of the batch.
func TestProcessBatchRejectsInvalid(t *testing.T) {
	ring := keys.NewRing("batch-reject", 8)
	stream := buildWorkload(t, ring, 8, 20, 7)

	// Forge three failure modes on copies so the stream stays valid.
	sig := append([]byte(nil), stream[2].Sig()...)
	sig[0] ^= 0xff
	badSig := stream[2].WithSig(sig)

	wrongKey := *stream[4]
	wrongKey.PubKey = ring.Pair(7).Pub // key/account binding broken

	batch, _, err := New(ring.Pair(0), 1<<30, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocks := append([]*Block{badSig, &wrongKey}, stream...)
	results := batch.ProcessBatch(blocks, 4)
	for i := 0; i < 2; i++ {
		if results[i].Status != Rejected || !errors.Is(results[i].Err, ErrBadSignature) {
			t.Fatalf("forged block %d: %v (%v), want Rejected/ErrBadSignature", i, results[i].Status, results[i].Err)
		}
	}
	for i, res := range results[2:] {
		if res.Status == Rejected {
			t.Fatalf("valid block %d rejected alongside forgeries: %v", i, res.Err)
		}
	}
	if err := batch.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// Work stamps are checked in a batch too.
func TestProcessBatchChecksWork(t *testing.T) {
	const bits = 8
	ring := keys.NewRing("batch-work", 2)
	lat, _, err := New(ring.Pair(0), 1000, bits)
	if err != nil {
		t.Fatal(err)
	}
	good, err := lat.NewSend(ring.Pair(0), ring.Addr(1), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the content until the inherited work stamp is stale for the
	// new hash (a fresh hash can satisfy 8 bits by luck).
	bad := *good
	for {
		bad.Balance--
		bad.sign(ring.Pair(0))
		if !bad.VerifyWork(bits) {
			break
		}
	}

	results := lat.ProcessBatch([]*Block{good, &bad}, 2)
	if results[0].Status != Accepted {
		t.Fatalf("good block: %v (%v)", results[0].Status, results[0].Err)
	}
	if results[1].Status != Rejected || !errors.Is(results[1].Err, ErrBadWork) {
		t.Fatalf("stale-work block: %v (%v), want Rejected/ErrBadWork", results[1].Status, results[1].Err)
	}
}

// A block's first signature read writes it, so ProcessBatch must read
// each on the calling goroutine. A batch of struct copies of blocks
// nothing has read, each copy twice, is read once per copy, and the race
// detector sees any read on another goroutine.
func TestProcessBatchReadsSignaturesSerially(t *testing.T) {
	ring := keys.NewRing("batch-serial-reads", 6)
	stream := buildWorkload(t, ring, 6, 30, 11)
	copies := make([]*Block, len(stream))
	for i, b := range stream {
		cp := *b
		copies[i] = &cp
	}
	lat, _, err := New(ring.Pair(0), 1<<30, 0)
	if err != nil {
		t.Fatal(err)
	}
	signs := keys.Signs()
	results := lat.ProcessBatch(append(copies, copies...), 4)
	if n := keys.Signs() - signs; n != uint64(len(copies)) {
		t.Fatalf("%d signatures made for %d unread copies, want one each", n, len(copies))
	}
	for i, res := range results {
		want := Accepted
		if i >= len(copies) {
			want = Duplicate
		}
		if res.Status != want {
			t.Fatalf("block %d: %v (%v), want %v", i, res.Status, res.Err, want)
		}
	}
}

// Duplicates within one batch resolve exactly once.
func TestProcessBatchDuplicates(t *testing.T) {
	ring := keys.NewRing("batch-dup", 2)
	lat, _, err := New(ring.Pair(0), 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	send, err := lat.NewSend(ring.Pair(0), ring.Addr(1), 10)
	if err != nil {
		t.Fatal(err)
	}
	results := lat.ProcessBatch([]*Block{send, send, send}, 2)
	accepted, dup := 0, 0
	for _, res := range results {
		switch res.Status {
		case Accepted:
			accepted++
		case Duplicate:
			dup++
		default:
			t.Fatalf("unexpected status %v (%v)", res.Status, res.Err)
		}
	}
	if accepted != 1 || dup != 2 {
		t.Fatalf("accepted=%d dup=%d, want 1 and 2", accepted, dup)
	}
	if lat.BlockCount() != 2 { // genesis + one send
		t.Fatalf("block count %d, want 2", lat.BlockCount())
	}
}
