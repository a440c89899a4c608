package chain

// FuzzChainReplicas: the stores of one network share one block catalog, so
// a block one store attaches is content every other store can find by
// hash — and must still treat as absent until it attaches the block
// itself. The fuzzer puts three stores on one catalog, drives them down
// diverging histories (extensions, side blocks, heavy rivals that force
// reorgs, chains delivered child-first, duplicates, blocks another store
// accepted but this one's validator rejects, parentless orphans under a
// small pool bound, same-hash copies under another pointer) and checks
// every store after every step against its own naive model (mapStore,
// model_test.go).

import (
	"fmt"
	"testing"

	"repro/internal/hashx"
)

// storePair is one catalog-backed store and the model it must agree with.
type storePair struct {
	s *Store
	m *mapStore
}

// sameAdd compares two Add results field by field.
func sameAdd(a, b AddResult) error {
	if a.Status != b.Status || fmt.Sprint(a.Err) != fmt.Sprint(b.Err) || fmt.Sprint(a.Reorg) != fmt.Sprint(b.Reorg) {
		return fmt.Errorf("status %v/%v err %v/%v reorg %v/%v", a.Status, b.Status, a.Err, b.Err, a.Reorg, b.Reorg)
	}
	if len(a.Adopted) != len(b.Adopted) {
		return fmt.Errorf("adopted %d vs %d orphans", len(a.Adopted), len(b.Adopted))
	}
	for i := range a.Adopted {
		x, y := a.Adopted[i], b.Adopted[i]
		if x.Block != y.Block || x.Status != y.Status || fmt.Sprint(x.Reorg) != fmt.Sprint(y.Reorg) {
			return fmt.Errorf("adopted[%d]: %p %v %v vs %p %v %v", i, x.Block, x.Status, x.Reorg, y.Block, y.Status, y.Reorg)
		}
	}
	return nil
}

// agree compares everything a store answers with its model's answer.
// probes are the hashes the per-block queries are asked about.
func (p *storePair) agree(probes []hashx.Hash) error {
	s, m := p.s, p.m
	if s.Tip() != m.Tip() || s.Height() != m.Height() || s.Len() != m.Len() {
		return fmt.Errorf("tip %s/%d/%d vs model %s/%d/%d", s.Tip(), s.Height(), s.Len(), m.Tip(), m.Height(), m.Len())
	}
	if s.TipBlock() != m.blocks[m.tip] {
		return fmt.Errorf("TipBlock %p vs model %p", s.TipBlock(), m.blocks[m.tip])
	}
	for _, h := range probes {
		sb, sok := s.Get(h)
		mb, mok := m.Get(h)
		if sok != mok || sb != mb || s.HasBlock(h) != m.HasBlock(h) {
			return fmt.Errorf("Get(%s): %p/%v vs model %p/%v", h, sb, sok, mb, mok)
		}
		sw, serr := s.CumulativeWork(h)
		mw, merr := m.CumulativeWork(h)
		if sw != mw || fmt.Sprint(serr) != fmt.Sprint(merr) {
			return fmt.Errorf("CumulativeWork(%s): %v/%v vs model %v/%v", h, sw, serr, mw, merr)
		}
		if s.IsOnMainChain(h) != m.IsOnMainChain(h) || s.Confirmations(h) != m.Confirmations(h) {
			return fmt.Errorf("%s: on main %v, %d confirmations vs model %v, %d",
				h, s.IsOnMainChain(h), s.Confirmations(h), m.IsOnMainChain(h), m.Confirmations(h))
		}
	}
	for height := uint64(0); height <= m.Height()+2; height++ {
		sh, sok := s.HashAtHeight(height)
		mh, mok := m.HashAtHeight(height)
		if sok != mok || sh != mh {
			return fmt.Errorf("HashAtHeight(%d): %s/%v vs model %s/%v", height, sh, sok, mh, mok)
		}
	}
	if a, b := fmt.Sprint(s.MainChain()), fmt.Sprint(m.MainChain()); a != b {
		return fmt.Errorf("MainChain %s vs model %s", a, b)
	}
	if a, b := s.Stats(), m.Stats(); a != b {
		return fmt.Errorf("Stats %+v vs model %+v", a, b)
	}
	if s.OrphanPoolSize() != m.orphans.Len() || s.Orphans().Evicted() != m.orphans.Evicted() {
		return fmt.Errorf("orphans %d (%d evicted) vs model %d (%d evicted)",
			s.OrphanPoolSize(), s.Orphans().Evicted(), m.orphans.Len(), m.orphans.Evicted())
	}
	return nil
}

// poisonBytes marks a payload every store's validator but one rejects:
// a block with Bytes = poisonBytes+k is valid only at store k.
const poisonBytes = 1000

func FuzzChainReplicas(f *testing.F) {
	// Pairs of (op + 10*store, arg).
	f.Add([]byte{0, 1, 0, 2, 10, 3, 12, 1, 1, 9, 8, 0, 2, 5, 22, 4})
	f.Add([]byte{0, 0, 0, 1, 1, 4, 11, 0, 18, 7, 2, 3, 3, 2, 13, 9, 24, 1, 12, 7})
	f.Add([]byte{3, 3, 13, 4, 5, 0, 5, 1, 15, 2, 6, 1, 5, 3, 5, 4, 2, 6, 2, 7, 22, 8})
	f.Add([]byte{0, 0, 7, 1, 17, 1, 27, 2, 1, 2, 11, 130, 8, 0, 18, 3, 2, 4, 22, 5})
	f.Add([]byte{4, 0, 14, 1, 24, 2, 2, 1, 12, 1, 22, 2, 0, 3, 10, 3, 20, 3, 9, 0, 9, 1})
	// A longer branch delivered child-first reorganizes store 0; store 1
	// takes its tip as an orphan, then the chain; store 2 holds a copy of
	// height 1 under its own pointer.
	f.Add([]byte{0, 0, 0, 0, 3, 1, 12, 5, 19, 0, 27, 1, 29, 0, 8, 200, 7, 3, 2, 2})
	// Heaviest chain: heavy side blocks reorganize; a block valid at
	// store 1 alone is rejected by stores 0 and 2 while the catalog holds
	// it; parentless orphans under a bound of 1.
	f.Add([]byte{130, 0, 1, 0x83, 8, 9, 4, 1, 14, 1, 2, 5, 22, 5, 5, 0, 6, 0, 5, 1, 2, 6, 2, 8, 19, 1, 28, 17})
	// Heaviest chain: a side block on genesis ties the two-block chain's
	// work (the incumbent stays), then a heavier one wins and the tip
	// drops to height 1.
	f.Add([]byte{130, 0, 10, 0, 11, 141, 11, 129})
	f.Fuzz(func(t *testing.T, data []byte) {
		genesis := NewGenesis(hashx.Zero)
		choice := LongestChain
		if len(data) > 0 && data[0]&0x80 != 0 {
			choice = HeaviestChain
		}
		base, err := NewStore(genesis, choice)
		if err != nil {
			t.Fatal(err)
		}
		stores := []*storePair{{s: base, m: newMapStore(genesis, choice)}}
		for len(stores) < 3 {
			stores = append(stores, &storePair{s: base.Replica(), m: newMapStore(genesis, choice)})
		}
		for k, p := range stores {
			k := k
			reject := func(b, _ *Block) error {
				if op, ok := b.Payload.(OpaquePayload); ok && op.Bytes >= poisonBytes && op.Bytes != poisonBytes+k {
					return fmt.Errorf("poisoned for store %d", k)
				}
				return nil
			}
			p.s.SetValidator(reject)
			p.m.validate = reject
			p.s.Orphans().SetLimit(3)
			p.m.orphans.SetLimit(3)
		}

		// pool holds every block generated so far, so any store can be
		// handed any other store's history.
		pool := []*Block{genesis}
		next := 0
		mint := func(parent *Block, difficulty float64, bytes int) *Block {
			next++
			p := OpaquePayload{ID: hashx.Sum([]byte{byte(next), byte(next >> 8)}), Bytes: bytes, Txs: 1 + next%4}
			b := &Block{
				Header: Header{
					Parent: parent.Hash(), Height: parent.Header.Height + 1,
					TxRoot: p.Root(), Difficulty: difficulty, Nonce: uint64(next),
				},
				Payload: p,
			}
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
		deliver := func(p *storePair, b *Block) {
			got, want := p.s.Add(b), p.m.Add(b)
			if err := sameAdd(got, want); err != nil {
				t.Fatalf("Add(height %d): %v", b.Header.Height, err)
			}
		}
		// attachedAt picks one of the blocks p's model holds.
		attachedAt := func(p *storePair, arg byte) *Block {
			main := p.m.MainChain()
			b, _ := p.m.Get(main[int(arg)%len(main)])
			return b
		}

		const maxOps = 48
		for i, ops := 0, 0; i+1 < len(data) && ops < maxOps; i, ops = i+2, ops+1 {
			k := int(data[i]/10) % len(stores)
			p := stores[k]
			arg := data[i+1]
			switch data[i] % 10 {
			case 0: // extend the tip
				deliver(p, mint(p.m.blocks[p.m.tip], 1, 100))
			case 1: // a side block on a main-chain block, light or heavy
				diff := 1.0
				if arg&0x80 != 0 {
					diff = 1 + float64(arg%7)
				}
				deliver(p, mint(attachedAt(p, arg), diff, 100))
			case 2: // any block of any history: duplicates, propagation, orphans
				deliver(p, pool[int(arg)%len(pool)])
			case 3: // a short branch delivered child-first: orphans, then the cascade
				from := attachedAt(p, arg)
				n := 2 + int(arg%3)
				branch := []*Block{mint(from, 1+float64(arg>>6), 100)}
				for len(branch) < n {
					branch = append(branch, mint(branch[len(branch)-1], 1, 100))
				}
				for j := len(branch) - 1; j >= 0; j-- {
					deliver(p, branch[j])
				}
			case 4: // a block valid at one store only; offer it here
				deliver(p, mint(attachedAt(p, arg), 1, poisonBytes+int(arg)%len(stores)))
			case 5: // an orphan whose parent stays in the pool, undelivered
				parent := mint(attachedAt(p, arg), 1, 100)
				deliver(p, mint(parent, 1, 100))
			case 6: // a new orphan bound
				p.s.Orphans().SetLimit(1 + int(arg%4))
				p.m.orphans.SetLimit(1 + int(arg%4))
			case 7: // a copy of a pooled block under another pointer: same
				// header, same root, a payload of another size
				orig := pool[int(arg)%len(pool)]
				if op, ok := orig.Payload.(OpaquePayload); ok {
					op.Bytes += 7
					cp := &Block{Header: orig.Header, Payload: op}
					deliver(p, cp)
				}
			case 8: // a heavy rival far down the main chain
				deliver(p, mint(attachedAt(p, arg/8), 3+float64(arg%5), 100))
			case 9: // one store's whole main chain offered to another
				src := stores[int(arg)%len(stores)]
				for _, h := range src.m.MainChain() {
					b, _ := src.m.Get(h)
					deliver(p, b)
				}
			}
			for j, q := range stores {
				if err := q.agree(probes()); err != nil {
					t.Fatalf("step %d (op %d), store %d: %v", ops, data[i], j, err)
				}
			}
		}
	})
}
