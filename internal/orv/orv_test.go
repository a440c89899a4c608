package orv

import (
	"errors"
	"testing"
	"unsafe"

	"repro/internal/hashx"
	"repro/internal/keys"
)

func blockHash(name string) hashx.Hash { return hashx.Sum([]byte(name)) }

func weights(t *testing.T, byIdx map[int]uint64) (*Weights, *keys.Ring) {
	t.Helper()
	r := keys.NewRing("orv-test", 8)
	m := make(map[keys.Address]uint64, len(byIdx))
	for i, w := range byIdx {
		m[r.Addr(i)] = w
	}
	return NewWeights(m), r
}

func TestWeightsBasics(t *testing.T) {
	w, r := weights(t, map[int]uint64{0: 100, 1: 200, 2: 0})
	if w.Total() != 300 || w.OnlineTotal() != 300 {
		t.Fatalf("totals = %d/%d", w.Total(), w.OnlineTotal())
	}
	if w.WeightOf(r.Addr(2)) != 0 {
		t.Fatal("zero-weight rep should not register")
	}
	if !w.IsOnline(r.Addr(0)) {
		t.Fatal("reps start online")
	}
}

func TestWeightsOnlineToggle(t *testing.T) {
	w, r := weights(t, map[int]uint64{0: 100, 1: 200})
	w.SetOnline(r.Addr(1), false)
	if w.OnlineTotal() != 100 || w.Total() != 300 {
		t.Fatalf("offline not subtracted: %d/%d", w.OnlineTotal(), w.Total())
	}
	// Toggling twice is idempotent.
	w.SetOnline(r.Addr(1), false)
	if w.OnlineTotal() != 100 {
		t.Fatal("double offline double-subtracted")
	}
	w.SetOnline(r.Addr(1), true)
	if w.OnlineTotal() != 300 {
		t.Fatal("online not restored")
	}
	// Unknown rep is a no-op.
	w.SetOnline(keys.Deterministic("ghost").Address(), false)
	if w.OnlineTotal() != 300 {
		t.Fatal("unknown rep affected totals")
	}
}

func TestWeightsUpdateRedelegation(t *testing.T) {
	w, r := weights(t, map[int]uint64{0: 100, 1: 200})
	// Account re-delegates 50 from rep1 to rep0.
	w.Update(r.Addr(1), 150)
	w.Update(r.Addr(0), 150)
	if w.Total() != 300 || w.OnlineTotal() != 300 {
		t.Fatalf("re-delegation changed totals: %d/%d", w.Total(), w.OnlineTotal())
	}
	// New rep appears.
	w.Update(r.Addr(3), 40)
	if w.Total() != 340 || w.WeightOf(r.Addr(3)) != 40 {
		t.Fatal("new rep not registered")
	}
	// Rep drops to zero: removed.
	w.Update(r.Addr(3), 0)
	if w.Total() != 300 || w.IsOnline(r.Addr(3)) {
		t.Fatal("zeroed rep not removed")
	}
	// Offline rep update keeps online total consistent.
	w.SetOnline(r.Addr(1), false)
	w.Update(r.Addr(1), 100)
	if w.OnlineTotal() != 150 {
		t.Fatalf("offline update leaked into online total: %d", w.OnlineTotal())
	}
}

func TestVoteSignature(t *testing.T) {
	r := keys.NewRing("vote", 1)
	v := NewVote(r.Pair(0), blockHash("b"), 1)
	if !v.Verify() {
		t.Fatal("fresh vote rejected")
	}
	v.Seq = 2
	if v.Verify() {
		t.Fatal("tampered vote verified")
	}
	if v.EncodedSize() <= 0 {
		t.Fatal("vote size must be positive")
	}
}

// §IV-B: a transaction "is only confirmed when it receives a majority
// vote" — single-candidate election crossing quorum.
func TestSimpleConfirmation(t *testing.T) {
	w, r := weights(t, map[int]uint64{0: 40, 1: 35, 2: 25})
	tr := NewTracker(w, Config{QuorumFraction: 0.5})
	b := blockHash("tx-1")
	if err := tr.StartElection(b, b); err != nil {
		t.Fatal(err)
	}
	out, err := tr.ProcessVote(b, NewVote(r.Pair(0), b, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Confirmed {
		t.Fatal("40/100 should not confirm at majority quorum")
	}
	out, err = tr.ProcessVote(b, NewVote(r.Pair(1), b, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Confirmed || out.Winner != b || out.Tally != 75 {
		t.Fatalf("outcome = %+v", out)
	}
	if !tr.Confirmed(b) {
		t.Fatal("tracker did not record confirmation")
	}
}

// §III-B: "the winning transaction is the one that gained the most votes
// with regards to the voters weight" — fork election with vote switching.
func TestForkElectionWithVoteSwitching(t *testing.T) {
	w, r := weights(t, map[int]uint64{0: 40, 1: 35, 2: 25})
	tr := NewTracker(w, Config{QuorumFraction: 0.5})
	root := blockHash("contested-prev")
	a, b := blockHash("candidate-a"), blockHash("candidate-b")
	if err := tr.StartElection(root, a, b); err != nil {
		t.Fatal(err)
	}
	// Initial split: 40 for a, 35 for b — no quorum either way.
	tr.ProcessVote(root, NewVote(r.Pair(0), a, 1))
	tr.ProcessVote(root, NewVote(r.Pair(1), b, 1))
	lead, tally, err := tr.Leader(root)
	if err != nil || lead != a || tally != 40 {
		t.Fatalf("leader = %s/%d (%v)", lead, tally, err)
	}
	// Rep 1 switches to the leader (higher seq): 75 for a -> confirmed.
	out, err := tr.ProcessVote(root, NewVote(r.Pair(1), a, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Confirmed || out.Winner != a || out.Tally != 75 {
		t.Fatalf("outcome = %+v", out)
	}
	winner, ok := tr.Winner(root)
	if !ok || winner != a {
		t.Fatal("winner not recorded")
	}
	// Loser never confirmed.
	if tr.Confirmed(b) {
		t.Fatal("losing candidate confirmed")
	}
}

func TestStaleAndDuplicateVotesIgnored(t *testing.T) {
	w, r := weights(t, map[int]uint64{0: 60, 1: 60})
	tr := NewTracker(w, Config{})
	root := blockHash("root")
	a, b := blockHash("a"), blockHash("b")
	tr.StartElection(root, a, b)
	tr.ProcessVote(root, NewVote(r.Pair(0), a, 5))
	// Stale switch (lower seq) must not move weight.
	tr.ProcessVote(root, NewVote(r.Pair(0), b, 3))
	lead, tally, _ := tr.Leader(root)
	if lead != a || tally != 60 {
		t.Fatalf("stale vote moved weight: %s/%d", lead, tally)
	}
	// Duplicate (same seq) is a no-op as well.
	tr.ProcessVote(root, NewVote(r.Pair(0), a, 5))
	_, tally, _ = tr.Leader(root)
	if tally != 60 {
		t.Fatal("duplicate vote double counted")
	}
}

func TestProcessVoteErrors(t *testing.T) {
	w, r := weights(t, map[int]uint64{0: 100})
	tr := NewTracker(w, Config{})
	root := blockHash("root")
	a := blockHash("a")
	if _, err := tr.ProcessVote(root, NewVote(r.Pair(0), a, 1)); !errors.Is(err, ErrUnknownRoot) {
		t.Fatalf("err = %v", err)
	}
	tr.StartElection(root, a)
	// Non-candidate block.
	if _, err := tr.ProcessVote(root, NewVote(r.Pair(0), blockHash("x"), 1)); !errors.Is(err, ErrNotCandidate) {
		t.Fatalf("err = %v", err)
	}
	// Zero-weight voter.
	stranger := keys.Deterministic("stranger")
	if _, err := tr.ProcessVote(root, NewVote(stranger, a, 1)); !errors.Is(err, ErrNotRep) {
		t.Fatalf("err = %v", err)
	}
	// Bad signature.
	v := NewVote(r.Pair(0), a, 1)
	v.Sig()[0] ^= 0xFF
	if _, err := tr.ProcessVote(root, v); !errors.Is(err, ErrBadVoteSig) {
		t.Fatalf("err = %v", err)
	}
	// Decided election rejects further elector changes and reports.
	if _, err := tr.ProcessVote(root, NewVote(r.Pair(0), a, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.StartElection(root, blockHash("late")); !errors.Is(err, ErrAlreadyDecided) {
		t.Fatalf("err = %v", err)
	}
	if out, err := tr.ProcessVote(root, NewVote(r.Pair(0), a, 9)); !errors.Is(err, ErrAlreadyDecided) || !out.Confirmed {
		t.Fatalf("err = %v out = %+v", err, out)
	}
}

// Offline representatives shrink the quorum base, keeping liveness when
// voters disappear (§IV-B's real-world condition).
func TestQuorumAgainstOnlineWeight(t *testing.T) {
	w, r := weights(t, map[int]uint64{0: 30, 1: 30, 2: 40})
	tr := NewTracker(w, Config{QuorumFraction: 0.5})
	b := blockHash("tx")
	tr.StartElection(b, b)
	// With rep 2 (40) offline, online total is 60; 30+30 > 30 confirms.
	w.SetOnline(r.Addr(2), false)
	tr.ProcessVote(b, NewVote(r.Pair(0), b, 1))
	out, err := tr.ProcessVote(b, NewVote(r.Pair(1), b, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Confirmed {
		t.Fatalf("quorum not reduced by offline rep: %+v", out)
	}
}

func TestCementing(t *testing.T) {
	w, r := weights(t, map[int]uint64{0: 100})
	tr := NewTracker(w, Config{})
	b := blockHash("tx")
	tr.StartElection(b, b)
	if err := tr.Cement(b); !errors.Is(err, ErrNotConfirmed) {
		t.Fatalf("err = %v", err)
	}
	tr.ProcessVote(b, NewVote(r.Pair(0), b, 1))
	if err := tr.Cement(b); err != nil {
		t.Fatal(err)
	}
	if !tr.IsCemented(b) {
		t.Fatal("cement not recorded")
	}
	st := tr.Stats()
	if st.Cemented != 1 || st.Confirmed != 1 || st.Decided != 1 || st.LiveElections != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTrackerConfigFallback(t *testing.T) {
	w, _ := weights(t, map[int]uint64{0: 100})
	for _, q := range []float64{0, -1, 1, 2} {
		tr := NewTracker(w, Config{QuorumFraction: q})
		if tr.QuorumWeight() != 50 {
			t.Fatalf("fraction %g: quorum = %d, want 50", q, tr.QuorumWeight())
		}
	}
	tr := NewTracker(w, Config{QuorumFraction: 0.67})
	if tr.QuorumWeight() != 67 {
		t.Fatalf("quorum = %d, want 67", tr.QuorumWeight())
	}
}

func BenchmarkProcessVote(b *testing.B) {
	r := keys.NewRing("bench-orv", 64)
	m := make(map[keys.Address]uint64, 64)
	for i := 0; i < 64; i++ {
		m[r.Addr(i)] = 100
	}
	w := NewWeights(m)
	tr := NewTracker(w, Config{QuorumFraction: 0.99})
	root := blockHash("root")
	cand := blockHash("cand")
	tr.StartElection(root, cand)
	// Leave one representative silent so the 0.99 quorum is never
	// reached and the election stays live for the whole measurement.
	votes := make([]*Vote, 63)
	for i := range votes {
		votes[i] = NewVote(r.Pair(i), cand, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.ProcessVote(root, votes[i%63]); err != nil {
			b.Fatal(err)
		}
	}
}

// A vote into a live, uncontested election is tallied in the election's
// inline storage: no allocation. The inline storage costs no live bytes
// over the 176 a three-vote election held on the heap before it (a
// 64-byte struct, 48 for its candidate, 64 for four votes).
func TestVoteIntoLiveElectionAllocatesNothing(t *testing.T) {
	if size := unsafe.Sizeof(Election{}); size > 176 {
		t.Fatalf("Election is %d bytes, over the 176 it replaces", size)
	}
	byIdx := map[int]uint64{}
	for i := 0; i < 8; i++ {
		byIdx[i] = 10
	}
	w, r := weights(t, byIdx)
	tr := NewTracker(w, Config{QuorumFraction: 0.5})
	const runs = 50
	roots := make([]hashx.Hash, runs+1) // AllocsPerRun adds a warm-up run
	votes := make([][]*Vote, len(roots))
	for i := range roots {
		roots[i] = blockHash(string(rune('a' + i)))
		if err := tr.StartElection(roots[i], roots[i]); err != nil {
			t.Fatal(err)
		}
		// inlineVotes votes, 40 of 80 weight: still short of quorum.
		for rep := 0; rep < inlineVotes; rep++ {
			votes[i] = append(votes[i], NewVote(r.Pair(rep), roots[i], 1))
		}
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() {
		for _, v := range votes[i] {
			if out, err := tr.ProcessVote(roots[i], v); err != nil || out.Confirmed {
				t.Fatalf("vote: %+v, %v", out, err)
			}
		}
		i++
	}); n != 0 {
		t.Fatalf("votes into a live election allocate %v times per election, want 0", n)
	}
}
