package lattice

// mapLattice is the naive model FuzzLatticeReplicas checks every replica
// against: the block-lattice as it was written before the catalog split —
// six hash-keyed maps per replica, every block, pending amount and
// successor link stored again by every replica. It shares Block, Result
// and the gap buffer with the package and re-implements the bookkeeping
// only.
//
// Two corners differ from that historical code, both states the derived
// layout cannot express: a send re-attached after a fork rollback while
// its settlement stands is not pending again, and a receive rolled back
// after its own source send was rolled back does not make the detached
// send pending. The historical maps kept a pending entry in both cases,
// which let a second receive settle the same send.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/backlog"
	"repro/internal/hashx"
	"repro/internal/keys"
)

type modelChain struct {
	blocks []*Block
	head   hashx.Hash
}

type mapLattice struct {
	chains    map[keys.Address]*modelChain
	byHash    map[hashx.Hash]*Block
	pending   map[hashx.Hash]Pending
	settled   map[hashx.Hash]bool
	forks     map[hashx.Hash][]*Block
	successor map[hashx.Hash]hashx.Hash
	gaps      backlog.Buffer[gapKey, *Block]
	supply    uint64
}

// newMapLattice builds the model over an already signed genesis block.
func newMapLattice(genesis *Block, supply uint64) *mapLattice {
	m := &mapLattice{
		chains:    make(map[keys.Address]*modelChain),
		byHash:    make(map[hashx.Hash]*Block),
		pending:   make(map[hashx.Hash]Pending),
		settled:   make(map[hashx.Hash]bool),
		forks:     make(map[hashx.Hash][]*Block),
		successor: make(map[hashx.Hash]hashx.Hash),
		gaps:      backlog.New[gapKey, *Block](DefaultGapLimit),
		supply:    supply,
	}
	h := genesis.Hash()
	m.byHash[h] = genesis
	m.chains[genesis.Account] = &modelChain{blocks: []*Block{genesis}, head: h}
	return m
}

func (m *mapLattice) Head(addr keys.Address) (hashx.Hash, bool) {
	c, ok := m.chains[addr]
	if !ok {
		return hashx.Zero, false
	}
	return c.head, true
}

func (m *mapLattice) HeadBlock(addr keys.Address) (*Block, bool) {
	c, ok := m.chains[addr]
	if !ok {
		return nil, false
	}
	return m.byHash[c.head], true
}

func (m *mapLattice) Balance(addr keys.Address) uint64 {
	if b, ok := m.HeadBlock(addr); ok {
		return b.Balance
	}
	return 0
}

func (m *mapLattice) Get(h hashx.Hash) (*Block, bool) {
	b, ok := m.byHash[h]
	return b, ok
}

func (m *mapLattice) Chain(addr keys.Address) []*Block {
	c, ok := m.chains[addr]
	if !ok {
		return nil
	}
	return append([]*Block(nil), c.blocks...)
}

func (m *mapLattice) AllBlocks() []*Block {
	addrs := make([]keys.Address, 0, len(m.chains))
	for a := range m.chains {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return bytes.Compare(addrs[i][:], addrs[j][:]) < 0 })
	var out []*Block
	for _, a := range addrs {
		out = append(out, m.chains[a].blocks...)
	}
	return out
}

func (m *mapLattice) BlockCount() int {
	n := 0
	for _, c := range m.chains {
		n += len(c.blocks)
	}
	return n
}

func (m *mapLattice) PendingFor(addr keys.Address) []hashx.Hash {
	var out []hashx.Hash
	for h, p := range m.pending {
		if p.Destination == addr {
			out = append(out, h)
		}
	}
	return out
}

func (m *mapLattice) PendingTotal() uint64 {
	var t uint64
	for _, p := range m.pending {
		t += p.Amount
	}
	return t
}

func (m *mapLattice) Process(b *Block) Result {
	m.gaps.Expire()
	res := m.processOne(b)
	if res.Status == Accepted {
		res.Drained = m.drainGaps(b, nil)
	}
	return res
}

func (m *mapLattice) processOne(b *Block) Result {
	h := b.Hash()
	if _, dup := m.byHash[h]; dup {
		return Result{Status: Duplicate}
	}
	if !b.VerifySig() {
		return Result{Status: Rejected, Err: ErrBadSignature}
	}
	switch b.Type {
	case Open:
		return m.processOpen(b, h)
	case Send, Receive, Change:
		return m.processChained(b, h)
	default:
		return Result{Status: Rejected, Err: fmt.Errorf("lattice: unknown block type %d", b.Type)}
	}
}

func (m *mapLattice) processOpen(b *Block, h hashx.Hash) Result {
	if _, opened := m.chains[b.Account]; opened {
		return Result{Status: Rejected, Err: ErrAlreadyOpened}
	}
	if !b.Prev.IsZero() {
		return Result{Status: Rejected, Err: errors.New("lattice: open block must have zero prev")}
	}
	p, ok := m.pending[b.Source]
	if !ok {
		if m.settled[b.Source] {
			return Result{Status: Rejected, Err: errors.New("lattice: source already settled")}
		}
		m.gaps.Park(gapKey{h: b.Source, src: true}, b)
		return Result{Status: GapSource}
	}
	if p.Destination != b.Account {
		return Result{Status: Rejected, Err: ErrWrongDest}
	}
	if b.Balance != p.Amount {
		return Result{Status: Rejected, Err: fmt.Errorf("%w: open balance %d, pending %d", ErrBadBalance, b.Balance, p.Amount)}
	}
	delete(m.pending, b.Source)
	m.settled[b.Source] = true
	m.byHash[h] = b
	m.chains[b.Account] = &modelChain{blocks: []*Block{b}, head: h}
	return Result{Status: Accepted, Settled: b.Source}
}

func (m *mapLattice) processChained(b *Block, h hashx.Hash) Result {
	c, opened := m.chains[b.Account]
	if !opened {
		m.gaps.Park(gapKey{h: b.Prev}, b)
		return Result{Status: GapPrevious}
	}
	prev, known := m.byHash[b.Prev]
	if !known || prev.Account != b.Account {
		m.gaps.Park(gapKey{h: b.Prev}, b)
		return Result{Status: GapPrevious}
	}
	if err := m.validateAgainstPrev(b, prev); err != nil {
		if errors.Is(err, errGapSource) {
			m.gaps.Park(gapKey{h: b.Source, src: true}, b)
			return Result{Status: GapSource}
		}
		return Result{Status: Rejected, Err: err}
	}
	if b.Prev != c.head {
		for _, r := range m.forks[b.Prev] {
			if r.Hash() == h {
				return Result{Status: Duplicate}
			}
		}
		m.forks[b.Prev] = append(m.forks[b.Prev], b)
		rivals := []hashx.Hash{m.successor[b.Prev]}
		for _, r := range m.forks[b.Prev] {
			rivals = append(rivals, r.Hash())
		}
		return Result{Status: AcceptedFork, ForkRivals: rivals}
	}
	res := Result{Status: Accepted}
	switch b.Type {
	case Send:
		if !m.settled[h] {
			m.pending[h] = Pending{Destination: b.Destination, Amount: prev.Balance - b.Balance}
		}
	case Receive:
		delete(m.pending, b.Source)
		m.settled[b.Source] = true
		res.Settled = b.Source
	}
	m.byHash[h] = b
	m.successor[b.Prev] = h
	c.blocks = append(c.blocks, b)
	c.head = h
	return res
}

func (m *mapLattice) validateAgainstPrev(b, prev *Block) error {
	switch b.Type {
	case Send:
		if b.Balance >= prev.Balance {
			return fmt.Errorf("%w: send must decrease balance (%d -> %d)", ErrBadBalance, prev.Balance, b.Balance)
		}
		if b.Destination.IsZero() {
			return errors.New("lattice: send without destination")
		}
	case Receive:
		p, ok := m.pending[b.Source]
		if !ok {
			if m.settled[b.Source] {
				return errors.New("lattice: source already settled")
			}
			return errGapSource
		}
		if p.Destination != b.Account {
			return ErrWrongDest
		}
		if b.Balance != prev.Balance+p.Amount {
			return fmt.Errorf("%w: receive balance %d, want %d", ErrBadBalance, b.Balance, prev.Balance+p.Amount)
		}
	case Change:
		if b.Balance != prev.Balance {
			return fmt.Errorf("%w: change must not move value", ErrBadBalance)
		}
	default:
		return fmt.Errorf("lattice: type %s cannot chain", b.Type)
	}
	return nil
}

func (m *mapLattice) drainGaps(b *Block, drained []*Block) []*Block {
	h := b.Hash()
	queue := m.gaps.Take(gapKey{h: h})
	if b.Type == Send {
		queue = append(queue, m.gaps.Take(gapKey{h: h, src: true})...)
	}
	for _, w := range queue {
		if res := m.processOne(w); res.Status == Accepted {
			drained = append(drained, w)
			drained = m.drainGaps(w, drained)
		}
	}
	return drained
}

func (m *mapLattice) Forks() []hashx.Hash {
	out := make([]hashx.Hash, 0, len(m.forks))
	for h := range m.forks {
		out = append(out, h)
	}
	return out
}

func (m *mapLattice) ForkCandidates(prev hashx.Hash) ([]hashx.Hash, bool) {
	rivals, ok := m.forks[prev]
	if !ok {
		return nil, false
	}
	out := []hashx.Hash{m.successor[prev]}
	for _, r := range rivals {
		out = append(out, r.Hash())
	}
	return out, true
}

func (m *mapLattice) ResolveFork(prev, winner hashx.Hash) error {
	rivals, ok := m.forks[prev]
	if !ok {
		return ErrUnknownFork
	}
	incumbent := m.successor[prev]
	if winner == incumbent {
		delete(m.forks, prev)
		return nil
	}
	var win *Block
	for _, r := range rivals {
		if r.Hash() == winner {
			win = r
			break
		}
	}
	if win == nil {
		return fmt.Errorf("%w: winner %s not a candidate", ErrUnknownFork, winner)
	}
	c := m.chains[win.Account]
	if c.head != incumbent {
		return ErrNotAtHead
	}
	loser := m.byHash[incumbent]
	switch loser.Type {
	case Send:
		delete(m.pending, incumbent)
	case Receive:
		if _, attached := m.byHash[loser.Source]; attached {
			amount := loser.Balance - m.byHash[loser.Prev].Balance
			m.pending[loser.Source] = Pending{Destination: loser.Account, Amount: amount}
		}
		delete(m.settled, loser.Source)
	}
	delete(m.byHash, incumbent)
	c.blocks = c.blocks[:len(c.blocks)-1]
	c.head = loser.Prev
	delete(m.successor, prev)
	if res := m.processOne(win); res.Status != Accepted {
		return fmt.Errorf("lattice: fork winner failed to attach: %v (%v)", res.Status, res.Err)
	}
	delete(m.forks, prev)
	m.drainGaps(win, nil)
	return nil
}

func (m *mapLattice) Clone() *mapLattice {
	c := &mapLattice{
		chains:    make(map[keys.Address]*modelChain, len(m.chains)),
		byHash:    make(map[hashx.Hash]*Block, len(m.byHash)),
		pending:   make(map[hashx.Hash]Pending, len(m.pending)),
		settled:   make(map[hashx.Hash]bool, len(m.settled)),
		forks:     make(map[hashx.Hash][]*Block, len(m.forks)),
		successor: make(map[hashx.Hash]hashx.Hash, len(m.successor)),
		gaps:      m.gaps.Clone(),
		supply:    m.supply,
	}
	for addr, ch := range m.chains {
		c.chains[addr] = &modelChain{blocks: append([]*Block(nil), ch.blocks...), head: ch.head}
	}
	for h, b := range m.byHash {
		c.byHash[h] = b
	}
	for h, p := range m.pending {
		c.pending[h] = p
	}
	for h := range m.settled {
		c.settled[h] = true
	}
	for h, rs := range m.forks {
		c.forks[h] = append([]*Block(nil), rs...)
	}
	for h, s := range m.successor {
		c.successor[h] = s
	}
	return c
}

func (m *mapLattice) CheckInvariant() error {
	var total uint64
	for _, c := range m.chains {
		total += m.byHash[c.head].Balance
	}
	total += m.PendingTotal()
	if total != m.supply {
		return fmt.Errorf("lattice: conservation violated: %d != supply %d", total, m.supply)
	}
	return nil
}
