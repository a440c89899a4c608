package pos

import (
	"errors"
	"math"
	"testing"

	"repro/internal/hashx"
	"repro/internal/keys"
)

func reg(t *testing.T, stakes map[int]uint64) (*Registry, *keys.Ring) {
	t.Helper()
	r := keys.NewRing("pos-test", 8)
	g := NewRegistry()
	for i, s := range stakes {
		if err := g.Deposit(r.Pair(i).Pub, s); err != nil {
			t.Fatalf("Deposit: %v", err)
		}
	}
	return g, r
}

func TestDepositWithdraw(t *testing.T) {
	g, r := reg(t, map[int]uint64{0: 100, 1: 200})
	if g.TotalStake() != 300 || g.Len() != 2 {
		t.Fatalf("total=%d len=%d", g.TotalStake(), g.Len())
	}
	if g.StakeOf(r.Addr(1)) != 200 {
		t.Fatal("StakeOf wrong")
	}
	// Top-up.
	if err := g.Deposit(r.Pair(0).Pub, 50); err != nil {
		t.Fatal(err)
	}
	if g.StakeOf(r.Addr(0)) != 150 {
		t.Fatal("top-up lost")
	}
	amount, err := g.Withdraw(r.Addr(0))
	if err != nil || amount != 150 {
		t.Fatalf("Withdraw = %d, %v", amount, err)
	}
	if g.TotalStake() != 200 {
		t.Fatal("total not reduced by withdraw")
	}
	if _, err := g.Withdraw(keys.Deterministic("nobody").Address()); !errors.Is(err, ErrUnknownValidator) {
		t.Fatalf("err = %v", err)
	}
	if err := g.Deposit(r.Pair(2).Pub, 0); !errors.Is(err, ErrZeroDeposit) {
		t.Fatalf("err = %v", err)
	}
}

func TestSlashBurnsStake(t *testing.T) {
	g, r := reg(t, map[int]uint64{0: 100, 1: 300})
	burned, err := g.Slash(r.Addr(1))
	if err != nil || burned != 300 {
		t.Fatalf("Slash = %d, %v", burned, err)
	}
	if g.TotalStake() != 100 || g.Burned() != 300 {
		t.Fatalf("total=%d burned=%d", g.TotalStake(), g.Burned())
	}
	if !g.IsSlashed(r.Addr(1)) || g.StakeOf(r.Addr(1)) != 0 {
		t.Fatal("slashed validator still has stake")
	}
	// Slashed validators cannot re-enter.
	if err := g.Deposit(r.Pair(1).Pub, 10); !errors.Is(err, ErrSlashed) {
		t.Fatalf("re-deposit err = %v", err)
	}
	if _, err := g.Withdraw(r.Addr(1)); !errors.Is(err, ErrSlashed) {
		t.Fatalf("withdraw err = %v", err)
	}
	if _, err := g.Slash(r.Addr(1)); !errors.Is(err, ErrSlashed) {
		t.Fatalf("double slash err = %v", err)
	}
}

// §III-A2: "The more tokens a validator stakes, it has a higher chance to
// create the next block" — selection frequency must track stake share.
func TestProposerProportionalToStake(t *testing.T) {
	g, r := reg(t, map[int]uint64{0: 100, 1: 300, 2: 600})
	counts := map[keys.Address]int{}
	seed := hashx.Sum([]byte("epoch-seed"))
	const n = 50000
	for slot := uint64(0); slot < n; slot++ {
		p, err := g.Proposer(slot, seed)
		if err != nil {
			t.Fatal(err)
		}
		counts[p]++
	}
	for i, want := range map[int]float64{0: 0.1, 1: 0.3, 2: 0.6} {
		got := float64(counts[r.Addr(i)]) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("validator %d proposed %.3f, want ≈%.1f", i, got, want)
		}
	}
}

func TestProposerDeterministicAndSlashedExcluded(t *testing.T) {
	g, r := reg(t, map[int]uint64{0: 100, 1: 100})
	seed := hashx.Sum([]byte("s"))
	a1, _ := g.Proposer(7, seed)
	a2, _ := g.Proposer(7, seed)
	if a1 != a2 {
		t.Fatal("proposer not deterministic")
	}
	g.Slash(r.Addr(0))
	for slot := uint64(0); slot < 100; slot++ {
		p, err := g.Proposer(slot, seed)
		if err != nil {
			t.Fatal(err)
		}
		if p == r.Addr(0) {
			t.Fatal("slashed validator proposed")
		}
	}
	g2 := NewRegistry()
	if _, err := g2.Proposer(0, seed); !errors.Is(err, ErrNoStake) {
		t.Fatalf("empty registry err = %v", err)
	}
}

func cp(name string, epoch uint64) Checkpoint {
	return Checkpoint{Hash: hashx.Sum([]byte(name)), Epoch: epoch}
}

func TestVoteSignature(t *testing.T) {
	r := keys.NewRing("ffg-sig", 1)
	v := NewVote(r.Pair(0), cp("a", 0), cp("b", 1))
	if !v.Verify() {
		t.Fatal("fresh vote does not verify")
	}
	v.Target.Epoch = 2
	if v.Verify() {
		t.Fatal("tampered vote verifies")
	}
}

// The FFG happy path: 2/3 stake justifies the child and finalizes the
// parent — §IV-A's "non-reversible checkpoints".
func TestFFGJustifyAndFinalize(t *testing.T) {
	g, r := reg(t, map[int]uint64{0: 100, 1: 100, 2: 100})
	genesis := cp("genesis", 0)
	f := NewFFG(g, genesis)
	if !f.Justified(genesis.Hash) || !f.Finalized(genesis.Hash) {
		t.Fatal("genesis must start justified and finalized")
	}
	c1 := cp("c1", 1)

	// First vote: 100/300 — no quorum.
	j, fin, err := f.ProcessVote(NewVote(r.Pair(0), genesis, c1))
	if err != nil || j || fin {
		t.Fatalf("vote1: j=%v f=%v err=%v", j, fin, err)
	}
	// Second vote: 200/300 — not strictly more than 2/3.
	j, fin, err = f.ProcessVote(NewVote(r.Pair(1), genesis, c1))
	if err != nil || j || fin {
		t.Fatalf("vote2: j=%v f=%v err=%v", j, fin, err)
	}
	// Third vote crosses the supermajority: c1 justified, genesis's
	// epoch-child rule finalizes genesis (already final) — and c1 is the
	// new highest justified checkpoint.
	j, _, err = f.ProcessVote(NewVote(r.Pair(2), genesis, c1))
	if err != nil || !j {
		t.Fatalf("vote3: j=%v err=%v", j, err)
	}
	if !f.Justified(c1.Hash) || f.LastJustified() != c1 {
		t.Fatal("c1 not justified")
	}
	// Next epoch: c1 -> c2 votes finalize c1.
	c2 := cp("c2", 2)
	var finalized bool
	for i := 0; i < 3; i++ {
		_, fin, err := f.ProcessVote(NewVote(r.Pair(i), c1, c2))
		if err != nil {
			t.Fatal(err)
		}
		finalized = finalized || fin
	}
	if !finalized || !f.Finalized(c1.Hash) || f.LastFinalized() != c1 {
		t.Fatal("c1 not finalized by justified child")
	}
}

func TestFFGSkippedEpochJustifiesWithoutFinalizing(t *testing.T) {
	g, r := reg(t, map[int]uint64{0: 100, 1: 100, 2: 100})
	genesis := cp("genesis", 0)
	f := NewFFG(g, genesis)
	// Vote genesis -> epoch 2 directly (epoch 1 skipped).
	c2 := cp("c2", 2)
	for i := 0; i < 3; i++ {
		if _, fin, err := f.ProcessVote(NewVote(r.Pair(i), genesis, c2)); err != nil {
			t.Fatal(err)
		} else if fin {
			t.Fatal("skipped-epoch link must not finalize")
		}
	}
	if !f.Justified(c2.Hash) {
		t.Fatal("c2 should be justified")
	}
	if f.LastFinalized() != genesis {
		t.Fatal("nothing new should be finalized")
	}
}

func TestFFGRejectsBadVotes(t *testing.T) {
	g, r := reg(t, map[int]uint64{0: 100})
	genesis := cp("genesis", 0)
	f := NewFFG(g, genesis)

	// Unjustified source.
	v := NewVote(r.Pair(0), cp("nowhere", 3), cp("c4", 4))
	if _, _, err := f.ProcessVote(v); !errors.Is(err, ErrUnjustified) {
		t.Fatalf("err = %v", err)
	}
	// Epoch regress.
	v = NewVote(r.Pair(0), genesis, cp("c0", 0))
	if _, _, err := f.ProcessVote(v); !errors.Is(err, ErrEpochRegress) {
		t.Fatalf("err = %v", err)
	}
	// Non-validator.
	out := keys.Deterministic("outsider")
	v = NewVote(out, genesis, cp("c1", 1))
	if _, _, err := f.ProcessVote(v); !errors.Is(err, ErrUnknownValidator) {
		t.Fatalf("err = %v", err)
	}
	// Tampered signature.
	v = NewVote(r.Pair(0), genesis, cp("c1", 1))
	v.Sig()[0] ^= 0xFF
	if _, _, err := f.ProcessVote(v); !errors.Is(err, ErrBadVoteSig) {
		t.Fatalf("err = %v", err)
	}
	// Duplicate (same vote twice).
	v = NewVote(r.Pair(0), genesis, cp("c1", 1))
	if _, _, err := f.ProcessVote(v); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ProcessVote(v); !errors.Is(err, ErrAlreadyCounted) {
		t.Fatalf("err = %v", err)
	}
}

// §III-A2: "If an incorrect block is submitted … the validator's stake is
// burned". Double votes are the FFG incorrectness we detect.
func TestFFGDoubleVoteSlashes(t *testing.T) {
	g, r := reg(t, map[int]uint64{0: 100, 1: 100})
	genesis := cp("genesis", 0)
	f := NewFFG(g, genesis)
	if _, _, err := f.ProcessVote(NewVote(r.Pair(0), genesis, cp("a", 1))); err != nil {
		t.Fatal(err)
	}
	// Same epoch, different target: equivocation.
	_, _, err := f.ProcessVote(NewVote(r.Pair(0), genesis, cp("b", 1)))
	if !errors.Is(err, ErrDoubleVote) {
		t.Fatalf("err = %v", err)
	}
	if !g.IsSlashed(r.Addr(0)) {
		t.Fatal("double voter not slashed")
	}
	if g.TotalStake() != 100 {
		t.Fatal("slashed stake still counted")
	}
}

func TestFFGSurroundVoteSlashes(t *testing.T) {
	g, r := reg(t, map[int]uint64{0: 100, 1: 100, 2: 100})
	genesis := cp("genesis", 0)
	f := NewFFG(g, genesis)
	// Justify c1 and c2 with the other two validators so later sources
	// are legal.
	c1, c2 := cp("c1", 1), cp("c2", 2)
	for i := 0; i < 3; i++ {
		if _, _, err := f.ProcessVote(NewVote(r.Pair(i), genesis, c1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{1, 2} {
		if _, _, err := f.ProcessVote(NewVote(r.Pair(i), c1, c2)); err != nil {
			t.Fatal(err)
		}
	}
	// Validator 0 voted genesis(0) -> c1(1). Now it votes c1... no:
	// a surround is s2 < s1 < t1 < t2. Validator 0 casts
	// genesis(0) -> c3(3), surrounding its own (c1->c2)? It only voted
	// 0->1 so far. Cast 1->2 first (inner), then 0->3 (outer).
	if _, _, err := f.ProcessVote(NewVote(r.Pair(0), c1, c2)); err != nil {
		t.Fatal(err)
	}
	_, _, err := f.ProcessVote(NewVote(r.Pair(0), genesis, cp("c3", 3)))
	if !errors.Is(err, ErrSurroundVote) {
		t.Fatalf("err = %v", err)
	}
	if !g.IsSlashed(r.Addr(0)) {
		t.Fatal("surround voter not slashed")
	}
}

func TestFFGSlashedVoteDoesNotCount(t *testing.T) {
	g, r := reg(t, map[int]uint64{0: 400, 1: 100, 2: 100})
	genesis := cp("genesis", 0)
	f := NewFFG(g, genesis)
	// Validator 0 gets slashed; its huge stake must not justify anything.
	g.Slash(r.Addr(0))
	c1 := cp("c1", 1)
	if _, _, err := f.ProcessVote(NewVote(r.Pair(0), genesis, c1)); !errors.Is(err, ErrUnknownValidator) {
		t.Fatalf("err = %v", err)
	}
	// The two remaining 100s do reach 2/3 of the reduced 200 total.
	f.ProcessVote(NewVote(r.Pair(1), genesis, c1))
	j, _, err := f.ProcessVote(NewVote(r.Pair(2), genesis, c1))
	if err != nil || !j {
		t.Fatalf("remaining validators failed to justify: %v", err)
	}
}

func BenchmarkProposer(b *testing.B) {
	r := keys.NewRing("bench", 100)
	g := NewRegistry()
	for i := 0; i < 100; i++ {
		g.Deposit(r.Pair(i).Pub, uint64(i+1))
	}
	seed := hashx.Sum([]byte("seed"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Proposer(uint64(i), seed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFGVote(b *testing.B) {
	r := keys.NewRing("bench-ffg", 64)
	g := NewRegistry()
	for i := 0; i < 64; i++ {
		g.Deposit(r.Pair(i).Pub, 100)
	}
	genesis := cp("genesis", 0)
	f := NewFFG(g, genesis)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Advance the epoch once per validator round so repeated votes by
		// the same validator never equivocate within an epoch.
		epoch := uint64(i/64) + 1
		target := Checkpoint{
			Hash:  hashx.Sum([]byte{byte(i), byte(i >> 8), byte(i >> 16)}),
			Epoch: epoch,
		}
		v := NewVote(r.Pair(i%64), genesis, target)
		if _, _, err := f.ProcessVote(v); err != nil {
			b.Fatal(err)
		}
	}
}
