package chain

import (
	"errors"
	"testing"
	"time"

	"repro/internal/hashx"
)

// mkBlock builds a child block of parent with the given difficulty and a
// unique payload id.
func mkBlock(parent *Block, id byte, difficulty float64) *Block {
	payload := OpaquePayload{ID: hashx.Sum([]byte{id}), Bytes: 100, Txs: 10}
	return &Block{
		Header: Header{
			Parent:     parent.Hash(),
			Height:     parent.Header.Height + 1,
			Time:       parent.Header.Time + time.Second,
			TxRoot:     payload.Root(),
			Difficulty: difficulty,
		},
		Payload: payload,
	}
}

func newStore(t *testing.T, fc ForkChoice) (*Store, *Block) {
	t.Helper()
	g := NewGenesis(hashx.Zero)
	s, err := NewStore(g, fc)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s, g
}

func TestGenesisValidation(t *testing.T) {
	if _, err := NewStore(nil, LongestChain); err == nil {
		t.Fatal("nil genesis accepted")
	}
	bad := NewGenesis(hashx.Zero)
	bad.Header.Parent = hashx.Sum([]byte("not zero"))
	if _, err := NewStore(bad, LongestChain); err == nil {
		t.Fatal("genesis with parent accepted")
	}
	bad2 := NewGenesis(hashx.Zero)
	bad2.Header.Height = 3
	if _, err := NewStore(bad2, LongestChain); err == nil {
		t.Fatal("genesis with nonzero height accepted")
	}
}

func TestLinearGrowth(t *testing.T) {
	s, g := newStore(t, LongestChain)
	prev := g
	for i := 0; i < 10; i++ {
		b := mkBlock(prev, byte(i), 1)
		res := s.Add(b)
		if res.Status != Accepted {
			t.Fatalf("block %d status = %v", i, res.Status)
		}
		prev = b
	}
	if s.Height() != 10 {
		t.Fatalf("height = %d", s.Height())
	}
	if s.Tip() != prev.Hash() {
		t.Fatal("tip mismatch")
	}
	mc := s.MainChain()
	if len(mc) != 11 {
		t.Fatalf("main chain length = %d", len(mc))
	}
	if mc[0] != s.Genesis() || mc[10] != s.Tip() {
		t.Fatal("main chain endpoints wrong")
	}
	if got := s.Confirmations(mc[5]); got != 6 {
		t.Fatalf("confirmations at height 5 = %d, want 6", got)
	}
	if got := s.Confirmations(s.Tip()); got != 1 {
		t.Fatalf("tip confirmations = %d, want 1", got)
	}
}

func TestDuplicate(t *testing.T) {
	s, g := newStore(t, LongestChain)
	b := mkBlock(g, 1, 1)
	s.Add(b)
	if res := s.Add(b); res.Status != Duplicate {
		t.Fatalf("duplicate status = %v", res.Status)
	}
}

func TestHeightMismatchRejected(t *testing.T) {
	s, g := newStore(t, LongestChain)
	b := mkBlock(g, 1, 1)
	b.Header.Height = 7
	res := s.Add(b)
	if res.Status != Rejected || res.Err == nil {
		t.Fatalf("bad height accepted: %v", res.Status)
	}
}

func TestPayloadRootMismatchRejected(t *testing.T) {
	s, g := newStore(t, LongestChain)
	b := mkBlock(g, 1, 1)
	b.Header.TxRoot = hashx.Sum([]byte("wrong"))
	res := s.Add(b)
	if res.Status != Rejected {
		t.Fatalf("payload/TxRoot mismatch accepted: %v", res.Status)
	}
}

func TestValidatorHook(t *testing.T) {
	s, g := newStore(t, LongestChain)
	wantErr := errors.New("bad txs")
	s.SetValidator(func(b, parent *Block) error { return wantErr })
	res := s.Add(mkBlock(g, 1, 1))
	if res.Status != Rejected || !errors.Is(res.Err, wantErr) {
		t.Fatalf("validator not enforced: %v / %v", res.Status, res.Err)
	}
}

// Fig. 4's typical fork: two blocks claim the same predecessor; the chain
// that grows longer wins and the other is abandoned.
func TestSoftForkAndResolution(t *testing.T) {
	s, g := newStore(t, LongestChain)
	a := mkBlock(g, 1, 1)
	b := mkBlock(g, 2, 1)
	if res := s.Add(a); res.Status != Accepted {
		t.Fatalf("a: %v", res.Status)
	}
	// Competing block at the same height: side chain, first-seen tip kept.
	if res := s.Add(b); res.Status != AcceptedSide {
		t.Fatalf("b: %v", res.Status)
	}
	if s.Tip() != a.Hash() {
		t.Fatal("tie must keep first-seen tip")
	}
	if s.Confirmations(b.Hash()) != 0 {
		t.Fatal("side-chain block must have 0 confirmations")
	}
	// b2 extends b: longer chain adopted, a orphaned.
	b2 := mkBlock(b, 3, 1)
	res := s.Add(b2)
	if res.Status != AcceptedReorg {
		t.Fatalf("b2: %v", res.Status)
	}
	if res.Reorg == nil || res.Reorg.Depth() != 1 {
		t.Fatalf("reorg = %+v", res.Reorg)
	}
	if res.Reorg.Abandoned[0] != a.Hash() {
		t.Fatal("reorg abandoned wrong block")
	}
	if res.Reorg.AbandonedTxs != 10 {
		t.Fatalf("abandoned txs = %d, want 10", res.Reorg.AbandonedTxs)
	}
	if len(res.Reorg.Adopted) != 2 || res.Reorg.Adopted[0] != b.Hash() || res.Reorg.Adopted[1] != b2.Hash() {
		t.Fatalf("adopted = %v", res.Reorg.Adopted)
	}
	if s.Tip() != b2.Hash() {
		t.Fatal("tip should be b2")
	}
	if s.IsOnMainChain(a.Hash()) {
		t.Fatal("a should be off the main chain")
	}
	if !s.IsOnMainChain(b.Hash()) {
		t.Fatal("b should be on the main chain")
	}
	st := s.Stats()
	if st.Reorgs != 1 || st.OrphanedTotal != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Fig. 4's atypical fork: a deeper competing branch replaces several
// blocks at once.
func TestDeepReorg(t *testing.T) {
	s, g := newStore(t, LongestChain)
	// main: g -> a1 -> a2 -> a3
	a1 := mkBlock(g, 1, 1)
	a2 := mkBlock(a1, 2, 1)
	a3 := mkBlock(a2, 3, 1)
	for _, b := range []*Block{a1, a2, a3} {
		s.Add(b)
	}
	// rival: g -> b1 -> b2 -> b3 -> b4
	b1 := mkBlock(g, 11, 1)
	b2 := mkBlock(b1, 12, 1)
	b3 := mkBlock(b2, 13, 1)
	b4 := mkBlock(b3, 14, 1)
	s.Add(b1)
	s.Add(b2)
	if res := s.Add(b3); res.Status != AcceptedSide {
		t.Fatalf("b3 (tie) = %v", res.Status)
	}
	res := s.Add(b4)
	if res.Status != AcceptedReorg || res.Reorg.Depth() != 3 {
		t.Fatalf("b4 = %v, reorg %+v", res.Status, res.Reorg)
	}
	if s.Height() != 4 || s.Tip() != b4.Hash() {
		t.Fatal("reorg did not land on b4")
	}
	if s.Stats().MaxReorgDepth != 3 {
		t.Fatalf("MaxReorgDepth = %d", s.Stats().MaxReorgDepth)
	}
	// Heights must map to the new branch.
	if h, _ := s.HashAtHeight(1); h != b1.Hash() {
		t.Fatal("HashAtHeight(1) not on new branch")
	}
}

func TestHeaviestChainPrefersWork(t *testing.T) {
	s, g := newStore(t, HeaviestChain)
	// Light chain of 3 blocks (difficulty 1 each).
	l1 := mkBlock(g, 1, 1)
	l2 := mkBlock(l1, 2, 1)
	l3 := mkBlock(l2, 3, 1)
	for _, b := range []*Block{l1, l2, l3} {
		s.Add(b)
	}
	// Single heavy rival (difficulty 10) must win despite lower height.
	h1 := mkBlock(g, 9, 10)
	res := s.Add(h1)
	if res.Status != AcceptedReorg {
		t.Fatalf("heavy block = %v", res.Status)
	}
	if s.Tip() != h1.Hash() {
		t.Fatal("heaviest-chain rule not applied")
	}
	// Under LongestChain the same sequence keeps the taller chain.
	s2, g2 := newStore(t, LongestChain)
	m1 := mkBlock(g2, 1, 1)
	m2 := mkBlock(m1, 2, 1)
	m3 := mkBlock(m2, 3, 1)
	for _, b := range []*Block{m1, m2, m3} {
		s2.Add(b)
	}
	hv := mkBlock(g2, 9, 10)
	if res := s2.Add(hv); res.Status != AcceptedSide {
		t.Fatalf("longest-chain should keep taller chain, got %v", res.Status)
	}
}

func TestOrphanPoolAdoption(t *testing.T) {
	s, g := newStore(t, LongestChain)
	a1 := mkBlock(g, 1, 1)
	a2 := mkBlock(a1, 2, 1)
	a3 := mkBlock(a2, 3, 1)
	// Children arrive before parent: both wait in the orphan pool.
	if res := s.Add(a3); res.Status != Orphaned {
		t.Fatalf("a3 = %v", res.Status)
	}
	if res := s.Add(a2); res.Status != Orphaned {
		t.Fatalf("a2 = %v", res.Status)
	}
	if s.OrphanPoolSize() != 2 {
		t.Fatalf("orphan pool = %d", s.OrphanPoolSize())
	}
	// Parent arrives: the whole chain cascades in.
	if res := s.Add(a1); res.Status != Accepted {
		t.Fatalf("a1 = %v", res.Status)
	}
	if s.Height() != 3 || s.Tip() != a3.Hash() {
		t.Fatalf("cascade failed: height=%d", s.Height())
	}
	if s.OrphanPoolSize() != 0 {
		t.Fatal("orphan pool should be drained")
	}
}

// A block the catalog holds takes its parent's id from its entry: a
// store that has not attached that parent keeps the block as an orphan
// and adopts it once the parent arrives. A block the network numbered
// before any store attached it attaches as any first-seen block does.
func TestHeldBlockWaitsForItsParent(t *testing.T) {
	s, g := newStore(t, LongestChain)
	r := s.Replica()
	a1 := mkBlock(g, 1, 1)
	a2 := mkBlock(a1, 2, 1)
	a1.IDIn(s.Index()) // numbered at first sight, attached nowhere yet
	for _, b := range []*Block{a1, a2} {
		if res := s.Add(b); res.Status != Accepted {
			t.Fatalf("store: %v", res.Status)
		}
	}
	if res := r.Add(a2); res.Status != Orphaned {
		t.Fatalf("replica: a2 before a1 %v, want orphaned", res.Status)
	}
	if res := r.Add(a1); res.Status != Accepted || len(res.Adopted) != 1 || res.Adopted[0].Block != a2 {
		t.Fatalf("replica: a1 %v adopted %d, want a2 adopted", res.Status, len(res.Adopted))
	}
	if r.Tip() != a2.Hash() || r.Height() != 2 {
		t.Fatalf("replica: tip at height %d, want a2 at 2", r.Height())
	}
}

// An orphan flood must not grow the pool without bound: the oldest
// orphan is evicted FIFO, the eviction hook fires, and the pool counts
// it.
func TestOrphanPoolBounded(t *testing.T) {
	s, g := newStore(t, LongestChain)
	s.Orphans().SetLimit(4)
	var evicted []*Block
	s.Orphans().OnEvict(func(b *Block) { evicted = append(evicted, b) })

	// Ten orphans: each child references a parent the store never sees,
	// so every block parks in the pool.
	var firstOrphan *Block
	for i := 0; i < 10; i++ {
		parent := mkBlock(g, byte(2*i+1), 1)
		child := mkBlock(parent, byte(2*i+2), 1)
		if res := s.Add(child); res.Status != Orphaned {
			t.Fatalf("child %d = %v", i, res.Status)
		}
		if firstOrphan == nil {
			firstOrphan = child
		}
	}
	if got := s.OrphanPoolSize(); got > 4 {
		t.Fatalf("orphan pool holds %d blocks, cap 4", got)
	}
	if got := s.Orphans().Evicted(); got != 6 {
		t.Fatalf("Orphans().Evicted() = %d, want 6", got)
	}
	if len(evicted) != 6 || evicted[0].Hash() != firstOrphan.Hash() {
		t.Fatalf("eviction hook saw %d blocks; FIFO order broken", len(evicted))
	}
	// An orphan adopted by its parent is no longer evictable: stale order
	// entries are skipped, not double-counted.
	p := mkBlock(g, 30, 1)
	waiting := mkBlock(p, 31, 1)
	if res := s.Add(waiting); res.Status != Orphaned {
		t.Fatalf("waiting = %v", res.Status)
	}
	// Parking the 11th orphan evicted one more; adoption must not evict.
	if res := s.Add(p); res.Status == Orphaned {
		t.Fatalf("parent = %v", res.Status)
	}
	if _, ok := s.Get(waiting.Hash()); !ok {
		t.Fatal("waiting orphan was not adopted with its parent")
	}
	if got := s.Orphans().Evicted(); got != 7 {
		t.Fatalf("Orphans().Evicted() after adoption = %d, want 7", got)
	}
}

// An orphan whose parent never shows up must not wait forever: once its
// age exceeds the TTL it is evicted on the next Add, even while the
// pool is far under its count bound.
func TestOrphanTTLEviction(t *testing.T) {
	s, g := newStore(t, LongestChain)
	now := time.Duration(0)
	s.Orphans().SetTTL(10*time.Second, func() time.Duration { return now })
	var evicted []*Block
	s.Orphans().OnEvict(func(b *Block) { evicted = append(evicted, b) })

	// child arrives without its parent and parks at t=0.
	parent := mkBlock(g, 1, 1)
	child := mkBlock(parent, 2, 1)
	if res := s.Add(child); res.Status != Orphaned {
		t.Fatalf("child = %v", res.Status)
	}

	// Under the TTL, unrelated arrivals leave the orphan alone.
	now = 9 * time.Second
	b1 := mkBlock(g, 3, 1)
	if res := s.Add(b1); res.Status != Accepted {
		t.Fatalf("b1 = %v", res.Status)
	}
	if s.OrphanPoolSize() != 1 {
		t.Fatalf("orphan pool = %d before the TTL elapsed", s.OrphanPoolSize())
	}

	// Past the TTL, the next arrival expires it.
	now = 20 * time.Second
	b2 := mkBlock(b1, 4, 1)
	if res := s.Add(b2); res.Status != Accepted {
		t.Fatalf("b2 = %v", res.Status)
	}
	if s.OrphanPoolSize() != 0 {
		t.Fatalf("orphan pool = %d after the TTL elapsed", s.OrphanPoolSize())
	}
	if got := s.Orphans().Evicted(); got != 1 {
		t.Fatalf("Orphans().Evicted() = %d, want 1", got)
	}
	if len(evicted) != 1 || evicted[0].Hash() != child.Hash() {
		t.Fatalf("eviction hook saw %d blocks", len(evicted))
	}
	// The parent arriving later must not resurrect the evicted child.
	if res := s.Add(parent); res.Status == Orphaned {
		t.Fatalf("parent = %v", res.Status)
	}
	if _, ok := s.Get(child.Hash()); ok {
		t.Fatal("evicted orphan was adopted after its TTL expiry")
	}
}

func TestCumulativeWork(t *testing.T) {
	s, g := newStore(t, HeaviestChain)
	b1 := mkBlock(g, 1, 5)
	b2 := mkBlock(b1, 2, 7)
	s.Add(b1)
	s.Add(b2)
	w, err := s.CumulativeWork(b2.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if w != 12 {
		t.Fatalf("cumulative work = %g, want 12", w)
	}
	if _, err := s.CumulativeWork(hashx.Sum([]byte("unknown"))); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("unknown hash error = %v", err)
	}
}

func TestHeaderHashUniqueness(t *testing.T) {
	h1 := Header{Height: 1, Difficulty: 2, Nonce: 3}
	h2 := h1
	h2.Nonce = 4
	if h1.Hash() == h2.Hash() {
		t.Fatal("nonce change did not change header hash")
	}
	h3 := h1
	h3.Time = time.Second
	if h1.Hash() == h3.Hash() {
		t.Fatal("time change did not change header hash")
	}
}

func TestBlockSizeAndTxCount(t *testing.T) {
	g := NewGenesis(hashx.Zero)
	b := mkBlock(g, 1, 1)
	if b.Size() != b.Header.EncodedSize()+100 {
		t.Fatalf("Size = %d", b.Size())
	}
	if b.TxCount() != 10 {
		t.Fatalf("TxCount = %d", b.TxCount())
	}
	if g.TxCount() != 0 {
		t.Fatal("genesis TxCount should be 0")
	}
}

func TestForkChoiceString(t *testing.T) {
	if LongestChain.String() != "longest-chain" || HeaviestChain.String() != "heaviest-chain" {
		t.Fatal("ForkChoice names wrong")
	}
	if AddStatus(99).String() == "" || ForkChoice(99).String() == "" {
		t.Fatal("unknown values should still render")
	}
}

func TestStatsMainChainAccounting(t *testing.T) {
	s, g := newStore(t, LongestChain)
	b1 := mkBlock(g, 1, 1)
	b2 := mkBlock(b1, 2, 1)
	side := mkBlock(g, 7, 1)
	s.Add(b1)
	s.Add(b2)
	s.Add(side)
	st := s.Stats()
	if st.TxsOnMain != 20 {
		t.Fatalf("TxsOnMain = %d, want 20", st.TxsOnMain)
	}
	if st.OrphanedTotal != 1 {
		t.Fatalf("OrphanedTotal = %d", st.OrphanedTotal)
	}
	if st.BlocksAdded != 3 || st.SideBlocks != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func BenchmarkAddLinear(b *testing.B) {
	g := NewGenesis(hashx.Zero)
	s, err := NewStore(g, HeaviestChain)
	if err != nil {
		b.Fatal(err)
	}
	prev := g
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := mkBlock(prev, byte(i), 1)
		if res := s.Add(blk); res.Status != Accepted {
			b.Fatalf("status %v", res.Status)
		}
		prev = blk
	}
}
