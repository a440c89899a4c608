package lattice

// FuzzLatticeReplicas: the replicas of one network share one block
// catalog, so a block one replica attaches is content every other replica
// can find by hash — and must still treat as absent until it attaches the
// block itself. The fuzzer puts three replicas on one catalog, drives
// them down diverging histories (valid, duplicate, gap-prev, gap-source
// and bad-signature blocks, fork rivals and ResolveFork, gap eviction
// under a small bound, a Clone mid-stream) and checks every replica after
// every step against its own naive model (mapLattice, model_test.go).

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/hashx"
	"repro/internal/keys"
)

// replicaPair is one replica and the model it must agree with.
type replicaPair struct {
	l *Lattice
	m *mapLattice
}

func sortedHashes(hs []hashx.Hash) []hashx.Hash {
	sort.Slice(hs, func(i, j int) bool { return bytes.Compare(hs[i][:], hs[j][:]) < 0 })
	return hs
}

// sameResult compares two Process results field by field.
func sameResult(a, b Result) error {
	if a.Status != b.Status || fmt.Sprint(a.Err) != fmt.Sprint(b.Err) || a.Settled != b.Settled {
		return fmt.Errorf("status %v/%v err %v/%v settled %v/%v", a.Status, b.Status, a.Err, b.Err, a.Settled, b.Settled)
	}
	if fmt.Sprint(a.ForkRivals) != fmt.Sprint(b.ForkRivals) {
		return fmt.Errorf("fork rivals %v vs %v", a.ForkRivals, b.ForkRivals)
	}
	if len(a.Drained) != len(b.Drained) {
		return fmt.Errorf("drained %d vs %d blocks", len(a.Drained), len(b.Drained))
	}
	for i := range a.Drained {
		if a.Drained[i] != b.Drained[i] {
			return fmt.Errorf("drained[%d] differs", i)
		}
	}
	return nil
}

// agree compares everything a replica answers with its model's answer.
// probes are the hashes Get and ForkCandidates are asked about.
func (p *replicaPair) agree(ring *keys.Ring, probes []hashx.Hash) error {
	l, m := p.l, p.m
	for _, h := range probes {
		lb, lok := l.Get(h)
		mb, mok := m.Get(h)
		if lok != mok || lb != mb {
			return fmt.Errorf("Get(%s): %p/%v vs model %p/%v", h, lb, lok, mb, mok)
		}
		lp, lok := l.PendingInfo(h)
		mp, mok := m.pending[h]
		if lok != mok || lp != mp {
			return fmt.Errorf("PendingInfo(%s): %+v/%v vs model %+v/%v", h, lp, lok, mp, mok)
		}
		lc, lok := l.ForkCandidates(h)
		mc, mok := m.ForkCandidates(h)
		if lok != mok || fmt.Sprint(lc) != fmt.Sprint(mc) {
			return fmt.Errorf("ForkCandidates(%s): %v/%v vs model %v/%v", h, lc, lok, mc, mok)
		}
	}
	for i := 0; i < ring.Len(); i++ {
		addr := ring.Addr(i)
		lh, lok := l.Head(addr)
		mh, mok := m.Head(addr)
		if lok != mok || lh != mh {
			return fmt.Errorf("account %d head %v/%v vs model %v/%v", i, lh, lok, mh, mok)
		}
		if a, b := l.Balance(addr), m.Balance(addr); a != b {
			return fmt.Errorf("account %d balance %d vs model %d", i, a, b)
		}
		lp, mp := sortedHashes(l.PendingFor(addr)), sortedHashes(m.PendingFor(addr))
		if fmt.Sprint(lp) != fmt.Sprint(mp) {
			return fmt.Errorf("account %d pending %v vs model %v", i, lp, mp)
		}
	}
	if a, b := l.BlockCount(), m.BlockCount(); a != b {
		return fmt.Errorf("BlockCount %d vs model %d", a, b)
	}
	la, ma := l.AllBlocks(), m.AllBlocks()
	if len(la) != len(ma) {
		return fmt.Errorf("AllBlocks %d vs model %d blocks", len(la), len(ma))
	}
	for i := range la {
		if la[i] != ma[i] {
			return fmt.Errorf("AllBlocks[%d] differs", i)
		}
	}
	if a, b := fmt.Sprint(sortedHashes(l.Forks())), fmt.Sprint(sortedHashes(m.Forks())); a != b {
		return fmt.Errorf("Forks %v vs model %v", a, b)
	}
	if a, b := l.GapCount(), m.gaps.Len(); a != b {
		return fmt.Errorf("GapCount %d vs model %d", a, b)
	}
	if a, b := l.Gaps().Evicted(), m.gaps.Evicted(); a != b {
		return fmt.Errorf("gap evictions %d vs model %d", a, b)
	}
	if a, b := fmt.Sprint(l.CheckInvariant()), fmt.Sprint(m.CheckInvariant()); a != b {
		return fmt.Errorf("CheckInvariant %q vs model %q", a, b)
	}
	return nil
}

func FuzzLatticeReplicas(f *testing.F) {
	// Pairs of (op + 10*replica, arg).
	f.Add([]byte{0, 1, 1, 0, 10, 2, 11, 5, 2, 1, 12, 3, 6, 9, 7, 1})
	f.Add([]byte{0, 3, 3, 4, 4, 7, 2, 0, 2, 1, 2, 2, 2, 3, 8, 0, 13, 2, 14, 6, 12, 4, 12, 5})
	f.Add([]byte{0, 1, 0, 2, 6, 0, 16, 0, 10, 1, 6, 17, 7, 0, 17, 1, 9, 1, 2, 3, 27, 0, 5, 2})
	f.Add([]byte{0, 9, 1, 0, 0, 17, 1, 1, 6, 1, 2, 4, 19, 0, 7, 2, 11, 2, 22, 6, 5, 0, 25, 3})
	// A receive at the head loses its fork: its send must be pending again.
	f.Add([]byte{0, 0, 1, 1, 0, 0, 1, 1, 6, 1, 7, 8})
	// A second settlement of a settled send.
	f.Add([]byte{0, 0, 1, 1, 1, 129})
	ring := keys.NewRing("fuzz-replicas", fuzzAccounts)
	const supply = 1_000

	f.Fuzz(func(t *testing.T, data []byte) {
		base, genesis, err := New(ring.Pair(0), supply, 0)
		if err != nil {
			t.Fatal(err)
		}
		model := newMapLattice(genesis, supply)
		replicas := []*replicaPair{{l: base, m: model}}
		for len(replicas) < 3 {
			replicas = append(replicas, &replicaPair{l: base.Clone(), m: model.Clone()})
		}
		for _, r := range replicas {
			r.l.SetGapLimit(3)
			r.m.gaps.SetLimit(3)
		}

		// pool holds every block generated so far, one pointer per hash,
		// so any replica can be handed any other replica's history.
		pool := []*Block{genesis}
		byHash := map[hashx.Hash]*Block{genesis.Hash(): genesis}
		intern := func(b *Block) *Block {
			if known, ok := byHash[b.Hash()]; ok {
				return known
			}
			byHash[b.Hash()] = b
			pool = append(pool, b)
			return b
		}
		probes := func() []hashx.Hash {
			out := make([]hashx.Hash, 0, len(pool)+1)
			for _, b := range pool {
				out = append(out, b.Hash())
			}
			return append(out, hashx.Sum([]byte("never a block")))
		}
		deliver := func(r *replicaPair, b *Block) {
			got, want := r.l.Process(b), r.m.Process(b)
			if err := sameResult(got, want); err != nil {
				t.Fatalf("Process %s block: %v", b.Type, err)
			}
		}
		// send builds a signed send on from's head in r's view.
		send := func(r *replicaPair, from, to int, amount uint64) *Block {
			head, ok := r.m.HeadBlock(ring.Addr(from))
			if !ok || head.Balance == 0 {
				return nil
			}
			if amount > head.Balance {
				amount = head.Balance
			}
			b := &Block{Type: Send, Account: ring.Addr(from), Prev: head.Hash(),
				Representative: head.Representative, Balance: head.Balance - amount, Destination: ring.Addr(to)}
			b.sign(ring.Pair(from))
			return intern(b)
		}
		// settle builds the open or receive of src (amount) by account to,
		// on its head in r's view.
		settle := func(r *replicaPair, to int, src hashx.Hash, amount uint64) *Block {
			b := &Block{Type: Open, Account: ring.Addr(to), Representative: ring.Addr(to), Balance: amount, Source: src}
			if head, ok := r.m.HeadBlock(ring.Addr(to)); ok {
				b.Type, b.Prev, b.Representative, b.Balance = Receive, head.Hash(), head.Representative, head.Balance+amount
			}
			b.sign(ring.Pair(to))
			return intern(b)
		}

		const maxOps = 40
		for i, ops := 0, 0; i+1 < len(data) && ops < maxOps; i, ops = i+2, ops+1 {
			r := replicas[int(data[i]/10)%len(replicas)]
			arg := data[i+1]
			acct := int(arg) % fuzzAccounts
			other := (acct + 1 + int(arg/16)%(fuzzAccounts-1)) % fuzzAccounts
			switch data[i] % 10 {
			case 0: // valid send, or with the top bit a representative change
				if arg&0x80 != 0 {
					if head, ok := r.m.HeadBlock(ring.Addr(acct)); ok {
						b := &Block{Type: Change, Account: ring.Addr(acct), Prev: head.Hash(),
							Representative: ring.Addr(other), Balance: head.Balance}
						b.sign(ring.Pair(acct))
						deliver(r, intern(b))
					}
				} else if b := send(r, acct, other, 1+uint64(arg%5)); b != nil {
					deliver(r, b)
				}
			case 1: // settle one of the account's pending sends, or with the
				// top bit one it already settled (a double settlement)
				if arg&0x80 != 0 {
					var done []hashx.Hash
					for h := range r.m.settled {
						if b, ok := r.m.Get(h); ok && b.Destination == ring.Addr(acct) {
							done = append(done, h)
						}
					}
					if len(done) > 0 {
						src := sortedHashes(done)[int(arg/4)%len(done)]
						sent, _ := r.m.Get(src)
						prev, _ := r.m.Get(sent.Prev)
						deliver(r, settle(r, acct, src, prev.Balance-sent.Balance))
					}
				} else if hs := sortedHashes(r.m.PendingFor(ring.Addr(acct))); len(hs) > 0 {
					src := hs[int(arg/4)%len(hs)]
					deliver(r, settle(r, acct, src, r.m.pending[src].Amount))
				}
			case 2: // any block of any history: duplicates, propagation, gaps
				deliver(r, pool[int(arg)%len(pool)])
			case 3: // gap-prev: a send on top of a send this replica never sees
				if first := send(r, acct, other, 1); first != nil && first.Balance > 0 {
					second := &Block{Type: Send, Account: first.Account, Prev: first.Hash(),
						Representative: first.Representative, Balance: first.Balance - 1, Destination: ring.Addr(other)}
					second.sign(ring.Pair(acct))
					deliver(r, intern(second))
				}
			case 4: // gap-source: a settle of a send this replica never sees
				if s := send(r, acct, other, 1+uint64(arg%3)); s != nil {
					head, _ := r.m.HeadBlock(ring.Addr(acct))
					deliver(r, settle(r, other, s.Hash(), head.Balance-s.Balance))
				}
			case 5: // bad signature on a copy of a pooled block
				orig := pool[int(arg)%len(pool)]
				sig := append([]byte(nil), orig.Sig()...)
				sig[int(arg)%len(sig)] ^= 0x20
				deliver(r, orig.WithSig(sig))
			case 6: // fork rival claiming a non-head block as predecessor
				if chain := r.m.Chain(ring.Addr(acct)); len(chain) >= 2 {
					at := chain[int(arg/4)%(len(chain)-1)]
					if at.Balance > 0 {
						fork, err := NewForkSend(ring.Pair(acct), at.Hash(), at.Balance, ring.Addr(other), 1, at.Representative, 0)
						if err != nil {
							t.Fatal(err)
						}
						deliver(r, intern(fork))
					}
				}
			case 7: // resolve a fork for one of its candidates
				if forks := sortedHashes(r.m.Forks()); len(forks) > 0 {
					prev := forks[int(arg)%len(forks)]
					cands, _ := r.m.ForkCandidates(prev)
					winner := cands[int(arg/8)%len(cands)]
					if a, b := fmt.Sprint(r.l.ResolveFork(prev, winner)), fmt.Sprint(r.m.ResolveFork(prev, winner)); a != b {
						t.Fatalf("ResolveFork: %s vs model %s", a, b)
					}
				}
			case 8: // a new gap bound
				r.l.SetGapLimit(1 + int(arg%4))
				r.m.gaps.SetLimit(1 + int(arg%4))
			case 9: // replace this replica by a clone of another, mid-stream
				src := replicas[int(arg)%len(replicas)]
				r.l, r.m = src.l.Clone(), src.m.Clone()
			}
			for k, rep := range replicas {
				if err := rep.agree(ring, probes()); err != nil {
					t.Fatalf("step %d (op %d), replica %d: %v", ops, data[i], k, err)
				}
			}
		}
	})
}
