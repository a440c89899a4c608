package chain

// mapStore is the block store as it was written before the catalog split:
// every store its own hash-keyed maps of blocks, cumulative work, main
// chain heights and main-chain membership. It survives only as the oracle
// FuzzChainReplicas holds each catalog-backed Store to.

import (
	"errors"
	"fmt"

	"repro/internal/backlog"
	"repro/internal/hashx"
)

type mapStore struct {
	choice   ForkChoice
	validate Validator
	blocks   map[hashx.Hash]*Block
	cumWork  map[hashx.Hash]float64
	orphans  backlog.Buffer[hashx.Hash, *Block]
	genesis  hashx.Hash
	tip      hashx.Hash
	mainAt   map[uint64]hashx.Hash
	onMain   map[hashx.Hash]bool
	reorgs   int
	maxReorg int
	sideSeen int
	added    int
}

func newMapStore(genesis *Block, choice ForkChoice) *mapStore {
	g := genesis.Hash()
	return &mapStore{
		choice:  choice,
		blocks:  map[hashx.Hash]*Block{g: genesis},
		cumWork: map[hashx.Hash]float64{g: genesis.Header.Difficulty},
		orphans: backlog.New[hashx.Hash, *Block](DefaultOrphanLimit),
		genesis: g,
		tip:     g,
		mainAt:  map[uint64]hashx.Hash{0: g},
		onMain:  map[hashx.Hash]bool{g: true},
	}
}

func (s *mapStore) Tip() hashx.Hash { return s.tip }

func (s *mapStore) Height() uint64 { return s.blocks[s.tip].Header.Height }

func (s *mapStore) Len() int { return len(s.blocks) }

func (s *mapStore) Get(h hashx.Hash) (*Block, bool) {
	b, ok := s.blocks[h]
	return b, ok
}

func (s *mapStore) HasBlock(h hashx.Hash) bool {
	_, ok := s.blocks[h]
	return ok
}

func (s *mapStore) CumulativeWork(h hashx.Hash) (float64, error) {
	w, ok := s.cumWork[h]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBlock, h)
	}
	return w, nil
}

func (s *mapStore) Add(b *Block) AddResult {
	s.orphans.Expire()
	res := s.addOne(b)
	if res.Status == Accepted || res.Status == AcceptedSide || res.Status == AcceptedReorg {
		res.Adopted = s.adoptOrphansOf(b.Hash())
	}
	return res
}

func (s *mapStore) addOne(b *Block) AddResult {
	h := b.Hash()
	if _, dup := s.blocks[h]; dup {
		return AddResult{Status: Duplicate}
	}
	parent, haveParent := s.blocks[b.Header.Parent]
	if !haveParent {
		s.orphans.Park(b.Header.Parent, b)
		return AddResult{Status: Orphaned}
	}
	if b.Header.Height != parent.Header.Height+1 {
		return AddResult{Status: Rejected, Err: fmt.Errorf(
			"chain: height %d does not follow parent height %d",
			b.Header.Height, parent.Header.Height)}
	}
	if b.Payload != nil && b.Payload.Root() != b.Header.TxRoot {
		return AddResult{Status: Rejected, Err: errors.New("chain: payload root does not match header TxRoot")}
	}
	if s.validate != nil {
		if err := s.validate(b, parent); err != nil {
			return AddResult{Status: Rejected, Err: fmt.Errorf("chain: validation: %w", err)}
		}
	}

	s.blocks[h] = b
	s.cumWork[h] = s.cumWork[b.Header.Parent] + b.Header.Difficulty
	s.added++

	if b.Header.Parent == s.tip {
		s.tip = h
		s.mainAt[b.Header.Height] = h
		s.onMain[h] = true
		return AddResult{Status: Accepted}
	}
	if !s.better(h) {
		s.sideSeen++
		return AddResult{Status: AcceptedSide}
	}
	reorg := s.switchTip(h)
	s.reorgs++
	if d := reorg.Depth(); d > s.maxReorg {
		s.maxReorg = d
	}
	return AddResult{Status: AcceptedReorg, Reorg: reorg}
}

func (s *mapStore) better(candidate hashx.Hash) bool {
	switch s.choice {
	case HeaviestChain:
		return s.cumWork[candidate] > s.cumWork[s.tip]
	default:
		return s.blocks[candidate].Header.Height > s.blocks[s.tip].Header.Height
	}
}

func (s *mapStore) switchTip(newTip hashx.Hash) *Reorg {
	oldTip := s.tip
	anc := s.commonAncestor(oldTip, newTip)
	reorg := &Reorg{}
	for h := oldTip; h != anc; h = s.blocks[h].Header.Parent {
		reorg.Abandoned = append(reorg.Abandoned, h)
		reorg.AbandonedTxs += s.blocks[h].TxCount()
		delete(s.onMain, h)
		delete(s.mainAt, s.blocks[h].Header.Height)
	}
	for h := newTip; h != anc; h = s.blocks[h].Header.Parent {
		reorg.Adopted = append(reorg.Adopted, h)
		s.onMain[h] = true
		s.mainAt[s.blocks[h].Header.Height] = h
	}
	for i, j := 0, len(reorg.Adopted)-1; i < j; i, j = i+1, j-1 {
		reorg.Adopted[i], reorg.Adopted[j] = reorg.Adopted[j], reorg.Adopted[i]
	}
	s.tip = newTip
	return reorg
}

func (s *mapStore) commonAncestor(a, b hashx.Hash) hashx.Hash {
	for s.blocks[a].Header.Height > s.blocks[b].Header.Height {
		a = s.blocks[a].Header.Parent
	}
	for s.blocks[b].Header.Height > s.blocks[a].Header.Height {
		b = s.blocks[b].Header.Parent
	}
	for a != b {
		a = s.blocks[a].Header.Parent
		b = s.blocks[b].Header.Parent
	}
	return a
}

func (s *mapStore) adoptOrphansOf(h hashx.Hash) []AdoptedOrphan {
	var adopted []AdoptedOrphan
	queue := []hashx.Hash{h}
	for len(queue) > 0 {
		parent := queue[0]
		queue = queue[1:]
		for _, b := range s.orphans.Take(parent) {
			res := s.addOne(b)
			if res.Status == Accepted || res.Status == AcceptedSide || res.Status == AcceptedReorg {
				adopted = append(adopted, AdoptedOrphan{Block: b, Status: res.Status, Reorg: res.Reorg})
				queue = append(queue, b.Hash())
			}
		}
	}
	return adopted
}

func (s *mapStore) IsOnMainChain(h hashx.Hash) bool { return s.onMain[h] }

func (s *mapStore) HashAtHeight(height uint64) (hashx.Hash, bool) {
	h, ok := s.mainAt[height]
	return h, ok
}

func (s *mapStore) Confirmations(h hashx.Hash) int {
	if !s.onMain[h] {
		return 0
	}
	return int(s.Height()-s.blocks[h].Header.Height) + 1
}

func (s *mapStore) MainChain() []hashx.Hash {
	out := make([]hashx.Hash, 0, s.Height()+1)
	for height := uint64(0); ; height++ {
		h, ok := s.mainAt[height]
		if !ok {
			break
		}
		out = append(out, h)
	}
	return out
}

func (s *mapStore) Stats() Stats {
	st := Stats{
		BlocksAdded:   s.added,
		SideBlocks:    s.sideSeen,
		Reorgs:        s.reorgs,
		MaxReorgDepth: s.maxReorg,
	}
	for h, b := range s.blocks {
		if h == s.genesis {
			continue
		}
		if s.onMain[h] {
			st.TxsOnMain += b.TxCount()
			st.BytesOnMain += b.Size()
		} else {
			st.OrphanedTotal++
		}
	}
	return st
}
