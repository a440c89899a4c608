// Package lattice implements Nano's block-lattice, the DAG ledger of paper
// §II-B (Fig. 2): "every account is linked to its own account-chain …
// equivalent to the account's transaction/balance history". A transfer
// takes two blocks — the sender's send and the receiver's receive
// (Fig. 3); between the two the funds are *pending* ("unsettled"), and
// "a node has to be online in order to receive a transaction". Every block
// carries the anti-spam proof of work of §III-B and names the account's
// representative for the Open Representative Voting of internal/orv.
//
// Forks — two blocks claiming the same predecessor — "are only possible as
// a result of a malicious attack or bad programming" (§IV-B); the lattice
// detects them and defers resolution to representative voting.
//
// Performance invariants (tracked by internal/perf, gated in CI):
// block content is immutable after the first Hash call, which is what
// lets Block.Hash memoize its digest; and ProcessBatch produces
// byte-identical lattice state and results for any worker count, so
// perf-suite runs pinned at Workers=1 describe the same computation the
// parallel paths execute.
package lattice

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/backlog"
	"repro/internal/hashx"
	"repro/internal/keys"
)

// BlockType distinguishes the four lattice block kinds.
type BlockType uint8

const (
	// Open starts an account chain by receiving its first pending send.
	Open BlockType = iota + 1
	// Send deducts from the sender's balance, leaving the amount pending.
	Send
	// Receive settles a pending send into the receiver's balance.
	Receive
	// Change switches the account's representative without moving value.
	Change
)

// String returns the block type name.
func (t BlockType) String() string {
	switch t {
	case Open:
		return "open"
	case Send:
		return "send"
	case Receive:
		return "receive"
	case Change:
		return "change"
	default:
		return fmt.Sprintf("BlockType(%d)", uint8(t))
	}
}

// Block is one node of the DAG: a single transaction on one account chain
// (§II-B: "each node holds a single transaction"). Like Nano's state
// blocks it records the resulting balance rather than a delta.
type Block struct {
	Type BlockType
	// Account is the chain this block belongs to.
	Account keys.Address
	// Prev is the previous block on the account chain (zero for Open).
	Prev hashx.Hash
	// Representative is the account's chosen voting delegate (§III-B).
	Representative keys.Address
	// Balance is the account balance after this block.
	Balance uint64
	// Destination receives the funds of a Send.
	Destination keys.Address
	// Source is the send block being settled by an Open/Receive.
	Source hashx.Hash
	// Work is the anti-spam Hashcash nonce (§III-B).
	Work uint64
	// PubKey and Sig authenticate the account owner.
	PubKey ed25519.PublicKey
	Sig    []byte

	// memoSelf/memoHash cache the content hash. The cache is valid only
	// while memoSelf still points at this exact Block value, so a copied
	// or moved block (memoSelf != &copy) silently re-hashes instead of
	// reading a stale digest — value copies stay safe without a noCopy
	// guard. Content fields are never mutated after the first Hash call
	// (blocks are signed over the digest immediately after construction),
	// which is the invariant that makes the memo sound.
	memoSelf *Block
	memoHash hashx.Hash

	// verified holds the signature verdict (see keys.SigMemo). In a
	// network simulation the same *Block floods every node and the
	// wallet that signed it seeds the verdict, so an honest block never
	// costs an ed25519 check; a Sig or PubKey changed after acceptance
	// misses and is checked in full.
	verified keys.SigMemo
}

// wireSize is the modeled encoding of a lattice block: near Nano's real
// ~216-byte state blocks.
const wireSize = 1 + keys.AddressSize + hashx.Size + keys.AddressSize + 8 +
	keys.AddressSize + hashx.Size + 8 + ed25519.PublicKeySize + ed25519.SignatureSize

// EncodedSize returns the modeled wire size of a block.
func (b *Block) EncodedSize() int { return wireSize }

// contentBytes serializes the signed/hashed portion (everything except
// Work and Sig; work can be recomputed without invalidating signatures).
func (b *Block) contentBytes() []byte {
	buf := make([]byte, 0, wireSize)
	buf = append(buf, byte(b.Type))
	buf = append(buf, b.Account[:]...)
	buf = append(buf, b.Prev[:]...)
	buf = append(buf, b.Representative[:]...)
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], b.Balance)
	buf = append(buf, scratch[:]...)
	buf = append(buf, b.Destination[:]...)
	buf = append(buf, b.Source[:]...)
	return buf
}

// Hash returns the block identifier, memoized on first use. Not safe
// for a concurrent FIRST call on the same pointer; ProcessBatch hashes
// its batch serially before fanning out for exactly this reason.
func (b *Block) Hash() hashx.Hash {
	if b.memoSelf == b {
		return b.memoHash
	}
	b.memoHash = hashx.Sum(b.contentBytes())
	b.memoSelf = b
	return b.memoHash
}

// sign fills PubKey and Sig.
func (b *Block) sign(kp *keys.KeyPair) {
	b.PubKey = kp.Pub
	b.Sig = kp.SignMemo(&b.verified, b.Account, b.Hash())
}

// VerifySig checks the owner signature and the key/account binding. The
// verdict is memoized per pointer (see verified): every replica reads it
// instead of running ed25519.
func (b *Block) VerifySig() bool {
	return b.verified.Verify(b.Account, b.Hash(), b.PubKey, b.Sig)
}

// SolveWork attaches an anti-spam stamp of the given difficulty (§III-B:
// "PoW is used as a spam protection measure"). It returns false if no
// stamp is found within maxIter attempts.
func (b *Block) SolveWork(bits int, maxIter uint64) bool {
	h := b.Hash()
	stamp, ok := hashx.FindStamp(h[:], bits, 0, maxIter)
	if !ok {
		return false
	}
	b.Work = stamp.Nonce
	return true
}

// VerifyWork checks the anti-spam stamp.
func (b *Block) VerifyWork(bits int) bool {
	h := b.Hash()
	return hashx.VerifyStamp(h[:], hashx.Stamp{Nonce: b.Work, Bits: bits})
}

// Status classifies the result of Lattice.Process.
type Status int

const (
	// Accepted means the block extended its account chain.
	Accepted Status = iota + 1
	// AcceptedFork means the block is valid but a competing block already
	// claims the same predecessor: representatives must vote (§IV-B).
	AcceptedFork
	// Duplicate means the block was already processed.
	Duplicate
	// GapPrevious means the block's predecessor has not been seen yet —
	// "the network [ignores] all subsequent transactions on top of the
	// missing block" (§IV-B). The block is buffered.
	GapPrevious
	// GapSource means a receive references an unknown or already-settled
	// send; the block is buffered until the source arrives.
	GapSource
	// Rejected means validation failed permanently.
	Rejected
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Accepted:
		return "accepted"
	case AcceptedFork:
		return "accepted-fork"
	case Duplicate:
		return "duplicate"
	case GapPrevious:
		return "gap-previous"
	case GapSource:
		return "gap-source"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Validation errors.
var (
	ErrBadSignature  = errors.New("lattice: bad signature")
	ErrBadWork       = errors.New("lattice: insufficient work")
	ErrAlreadyOpened = errors.New("lattice: account already opened")
	ErrNotOpened     = errors.New("lattice: account not opened")
	ErrBadBalance    = errors.New("lattice: balance arithmetic does not check out")
	ErrWrongDest     = errors.New("lattice: send is not addressed to this account")
	ErrUnknownFork   = errors.New("lattice: no such fork")
	ErrNotAtHead     = errors.New("lattice: fork loser is not at the chain head")
)

// Pending describes one unsettled send (Fig. 3's "pending in the network
// awaiting the recipient").
type Pending struct {
	Destination keys.Address
	Amount      uint64
}

// accountChain is the per-account history.
type accountChain struct {
	blocks []*Block
	head   hashx.Hash
}

// Result reports what Process did.
type Result struct {
	Status Status
	Err    error
	// ForkRivals holds the competing block hashes when Status ==
	// AcceptedFork (the attached incumbent first).
	ForkRivals []hashx.Hash
	// Settled names the send block settled by an accepted Open/Receive.
	Settled hashx.Hash
	// Drained lists previously gap-buffered blocks that attached as a
	// consequence of this block, in attachment order. Network nodes use
	// it to vote on and settle late-arriving chains (§IV-B).
	Drained []*Block
}

// Lattice is the whole DAG: every account chain, the pending (unsettled)
// send set, fork records awaiting votes, and gap buffers.
type Lattice struct {
	workBits int
	chains   map[keys.Address]*accountChain
	byHash   map[hashx.Hash]*Block
	pending  map[hashx.Hash]Pending // send hash -> unsettled amount
	settled  map[hashx.Hash]bool    // send hash -> settled
	// forks maps a contested predecessor to the detached rival blocks.
	forks map[hashx.Hash][]*Block
	// successor maps an attached block to its attached successor.
	successor map[hashx.Hash]hashx.Hash
	// gaps buffers blocks whose predecessor (keyed by Prev) or source send
	// (keyed by Source) is missing, under one bound.
	gaps    backlog.Buffer[gapKey, *Block]
	supply  uint64
	genesis hashx.Hash
}

// gapKey names what a parked block waits for: its predecessor, or with
// src set its source send.
type gapKey struct {
	h   hashx.Hash
	src bool
}

// DefaultGapLimit bounds the gap buffers when SetGapLimit was never
// called. It is generous — honest steady-state traffic parks at most a
// handful of blocks per missing ancestor — so only a flood of orphaned
// blocks (spam, or a node fallen catastrophically behind) evicts.
const DefaultGapLimit = 4096

// New creates a lattice whose genesis open block grants the entire supply
// to the genesis account (§II-B: "The genesis transaction defines the
// initial state"). workBits is the anti-spam difficulty all blocks must
// meet (0 disables work checks, useful in unit tests).
func New(genesisOwner *keys.KeyPair, supply uint64, workBits int) (*Lattice, *Block, error) {
	l := &Lattice{
		workBits:  workBits,
		chains:    make(map[keys.Address]*accountChain),
		byHash:    make(map[hashx.Hash]*Block),
		pending:   make(map[hashx.Hash]Pending),
		settled:   make(map[hashx.Hash]bool),
		forks:     make(map[hashx.Hash][]*Block),
		successor: make(map[hashx.Hash]hashx.Hash),
		gaps:      backlog.New[gapKey, *Block](DefaultGapLimit),
		supply:    supply,
	}
	genesis := &Block{
		Type:           Open,
		Account:        genesisOwner.Address(),
		Representative: genesisOwner.Address(),
		Balance:        supply,
	}
	genesis.sign(genesisOwner)
	if workBits > 0 {
		if !genesis.SolveWork(workBits, 1<<40) {
			return nil, nil, errors.New("lattice: could not solve genesis work")
		}
	}
	h := genesis.Hash()
	l.byHash[h] = genesis
	l.chains[genesis.Account] = &accountChain{blocks: []*Block{genesis}, head: h}
	l.genesis = h
	return l, genesis, nil
}

// Genesis returns the genesis block hash.
func (l *Lattice) Genesis() hashx.Hash { return l.genesis }

// Supply returns the total issued value.
func (l *Lattice) Supply() uint64 { return l.supply }

// WorkBits returns the anti-spam difficulty.
func (l *Lattice) WorkBits() int { return l.workBits }

// Head returns an account's chain head hash.
func (l *Lattice) Head(addr keys.Address) (hashx.Hash, bool) {
	c, ok := l.chains[addr]
	if !ok {
		return hashx.Zero, false
	}
	return c.head, true
}

// HeadBlock returns an account's chain head block.
func (l *Lattice) HeadBlock(addr keys.Address) (*Block, bool) {
	c, ok := l.chains[addr]
	if !ok {
		return nil, false
	}
	return l.byHash[c.head], true
}

// Balance returns an account's settled balance (0 for unopened accounts).
func (l *Lattice) Balance(addr keys.Address) uint64 {
	if b, ok := l.HeadBlock(addr); ok {
		return b.Balance
	}
	return 0
}

// Representative returns the account's current representative.
func (l *Lattice) Representative(addr keys.Address) (keys.Address, bool) {
	b, ok := l.HeadBlock(addr)
	if !ok {
		return keys.ZeroAddress, false
	}
	return b.Representative, true
}

// Get returns a block by hash.
func (l *Lattice) Get(h hashx.Hash) (*Block, bool) {
	b, ok := l.byHash[h]
	return b, ok
}

// ChainLen returns the number of blocks on an account's chain.
func (l *Lattice) ChainLen(addr keys.Address) int {
	c, ok := l.chains[addr]
	if !ok {
		return 0
	}
	return len(c.blocks)
}

// Chain returns a copy of the account's block sequence, oldest first.
func (l *Lattice) Chain(addr keys.Address) []*Block {
	c, ok := l.chains[addr]
	if !ok {
		return nil
	}
	out := make([]*Block, len(c.blocks))
	copy(out, c.blocks)
	return out
}

// Accounts returns the number of opened accounts.
func (l *Lattice) Accounts() int { return len(l.chains) }

// AllBlocks returns every attached block in a deterministic order:
// accounts sorted by address, each account's chain oldest-first. Churn
// recovery uses it as the catch-up stream a live peer replays to a
// rejoining node — per-chain order minimizes gap buffering at the
// receiver (in-order delivery attaches directly; reordered delivery
// settles through the gap buffers), and the fixed account order keeps
// replay byte-reproducible across runs.
func (l *Lattice) AllBlocks() []*Block {
	addrs := make([]keys.Address, 0, len(l.chains))
	for a := range l.chains {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return bytes.Compare(addrs[i][:], addrs[j][:]) < 0
	})
	out := make([]*Block, 0, l.BlockCount())
	for _, a := range addrs {
		out = append(out, l.chains[a].blocks...)
	}
	return out
}

// BlockCount returns the number of attached blocks (rivals and buffered
// blocks excluded).
func (l *Lattice) BlockCount() int {
	n := 0
	for _, c := range l.chains {
		n += len(c.blocks)
	}
	return n
}

// PendingFor lists the unsettled send hashes addressed to an account.
func (l *Lattice) PendingFor(addr keys.Address) []hashx.Hash {
	var out []hashx.Hash
	for h, p := range l.pending {
		if p.Destination == addr {
			out = append(out, h)
		}
	}
	return out
}

// PendingInfo returns the pending record of a send block.
func (l *Lattice) PendingInfo(send hashx.Hash) (Pending, bool) {
	p, ok := l.pending[send]
	return p, ok
}

// PendingCount returns the number of unsettled sends.
func (l *Lattice) PendingCount() int { return len(l.pending) }

// PendingTotal returns the total unsettled value.
func (l *Lattice) PendingTotal() uint64 {
	var t uint64
	for _, p := range l.pending {
		t += p.Amount
	}
	return t
}

// Process validates and attaches a block, buffering it on gaps and
// recording forks for representative voting. Aged-out gap blocks are
// expired first, so TTL eviction advances with every processed block
// even when nothing new parks.
func (l *Lattice) Process(b *Block) Result {
	l.gaps.Expire()
	res := l.processOne(b)
	if res.Status == Accepted {
		res.Drained = l.drainGaps(b, nil)
	}
	return res
}

func (l *Lattice) processOne(b *Block) Result {
	h := b.Hash()
	if _, dup := l.byHash[h]; dup {
		return Result{Status: Duplicate}
	}
	return l.processVerified(b, h, b.VerifySig(), l.workBits <= 0 || b.VerifyWork(l.workBits))
}

// processVerified attaches a block whose expensive crypto checks (owner
// signature, anti-spam work) were already performed — inline by processOne,
// or across the ProcessBatch worker pool.
func (l *Lattice) processVerified(b *Block, h hashx.Hash, sigOK, workOK bool) Result {
	if _, dup := l.byHash[h]; dup {
		return Result{Status: Duplicate}
	}
	if !sigOK {
		return Result{Status: Rejected, Err: ErrBadSignature}
	}
	if !workOK {
		return Result{Status: Rejected, Err: ErrBadWork}
	}
	switch b.Type {
	case Open:
		return l.processOpen(b, h)
	case Send, Receive, Change:
		return l.processChained(b, h)
	default:
		return Result{Status: Rejected, Err: fmt.Errorf("lattice: unknown block type %d", b.Type)}
	}
}

func (l *Lattice) processOpen(b *Block, h hashx.Hash) Result {
	if _, opened := l.chains[b.Account]; opened {
		return Result{Status: Rejected, Err: ErrAlreadyOpened}
	}
	if !b.Prev.IsZero() {
		return Result{Status: Rejected, Err: errors.New("lattice: open block must have zero prev")}
	}
	p, ok := l.pending[b.Source]
	if !ok {
		if l.settled[b.Source] {
			return Result{Status: Rejected, Err: errors.New("lattice: source already settled")}
		}
		l.parkSource(b)
		return Result{Status: GapSource}
	}
	if p.Destination != b.Account {
		return Result{Status: Rejected, Err: ErrWrongDest}
	}
	if b.Balance != p.Amount {
		return Result{Status: Rejected, Err: fmt.Errorf("%w: open balance %d, pending %d", ErrBadBalance, b.Balance, p.Amount)}
	}
	delete(l.pending, b.Source)
	l.settled[b.Source] = true
	l.byHash[h] = b
	l.chains[b.Account] = &accountChain{blocks: []*Block{b}, head: h}
	return Result{Status: Accepted, Settled: b.Source}
}

func (l *Lattice) processChained(b *Block, h hashx.Hash) Result {
	c, opened := l.chains[b.Account]
	if !opened {
		l.parkPrev(b)
		return Result{Status: GapPrevious}
	}
	prev, known := l.byHash[b.Prev]
	if !known || prev.Account != b.Account {
		l.parkPrev(b)
		return Result{Status: GapPrevious}
	}
	if b.Prev != c.head {
		// The predecessor already has a successor: a fork (§IV-B, "two
		// transactions may claim the same predecessor causing a fork").
		if err := l.validateAgainstPrev(b, prev); err != nil {
			if errors.Is(err, errGapSource) {
				l.parkSource(b)
				return Result{Status: GapSource}
			}
			return Result{Status: Rejected, Err: err}
		}
		for _, r := range l.forks[b.Prev] {
			if r.Hash() == h {
				return Result{Status: Duplicate}
			}
		}
		l.forks[b.Prev] = append(l.forks[b.Prev], b)
		rivals := []hashx.Hash{l.successor[b.Prev]}
		for _, r := range l.forks[b.Prev] {
			rivals = append(rivals, r.Hash())
		}
		return Result{Status: AcceptedFork, ForkRivals: rivals}
	}
	if err := l.validateAgainstPrev(b, prev); err != nil {
		if errors.Is(err, errGapSource) {
			l.parkSource(b)
			return Result{Status: GapSource}
		}
		return Result{Status: Rejected, Err: err}
	}
	return l.attach(b, h, c)
}

// validateAgainstPrev checks type-specific balance rules relative to the
// claimed predecessor.
func (l *Lattice) validateAgainstPrev(b, prev *Block) error {
	switch b.Type {
	case Send:
		if b.Balance >= prev.Balance {
			return fmt.Errorf("%w: send must decrease balance (%d -> %d)", ErrBadBalance, prev.Balance, b.Balance)
		}
		if b.Destination.IsZero() {
			return errors.New("lattice: send without destination")
		}
	case Receive:
		p, ok := l.pending[b.Source]
		if !ok {
			if l.settled[b.Source] {
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

// errGapSource is an internal sentinel turned into GapSource status.
var errGapSource = errors.New("lattice: source not yet pending")

// attach links a validated block at the head of its chain.
func (l *Lattice) attach(b *Block, h hashx.Hash, c *accountChain) Result {
	res := Result{Status: Accepted}
	switch b.Type {
	case Send:
		prev := l.byHash[b.Prev]
		amount := prev.Balance - b.Balance
		l.pending[h] = Pending{Destination: b.Destination, Amount: amount}
	case Receive:
		delete(l.pending, b.Source)
		l.settled[b.Source] = true
		res.Settled = b.Source
	}
	l.byHash[h] = b
	l.successor[b.Prev] = h
	c.blocks = append(c.blocks, b)
	c.head = h
	return res
}

// parkPrev buffers a block whose predecessor is missing.
func (l *Lattice) parkPrev(b *Block) { l.gaps.Park(gapKey{h: b.Prev}, b) }

// parkSource buffers a receive/open whose source send is missing.
func (l *Lattice) parkSource(b *Block) { l.gaps.Park(gapKey{h: b.Source, src: true}, b) }

// SetGapLimit overrides the gap-buffer bound (n <= 0 restores
// DefaultGapLimit). The new bound applies from the next parked block.
func (l *Lattice) SetGapLimit(n int) { l.gaps.SetLimit(n) }

// Gaps exposes the gap buffer: its age bound, eviction hook and eviction
// count. Network layers bound it and hook evictions to unmark dedup
// state and schedule a re-pull.
func (l *Lattice) Gaps() *backlog.Buffer[gapKey, *Block] { return &l.gaps }

// drainGaps retries blocks that were waiting on the newly attached block
// — predecessor waiters first, then a send's source waiters — appending
// every block that attaches to drained (in attachment order).
func (l *Lattice) drainGaps(b *Block, drained []*Block) []*Block {
	h := b.Hash()
	queue := l.gaps.Take(gapKey{h: h})
	if b.Type == Send {
		queue = append(queue, l.gaps.Take(gapKey{h: h, src: true})...)
	}
	for _, w := range queue {
		res := l.processOne(w)
		if res.Status == Accepted {
			drained = append(drained, w)
			drained = l.drainGaps(w, drained)
		}
	}
	return drained
}

// GapCount returns how many blocks are buffered waiting for predecessors
// or sources.
func (l *Lattice) GapCount() int { return l.gaps.Len() }

// Forks returns the contested predecessors with at least one detached
// rival.
func (l *Lattice) Forks() []hashx.Hash {
	out := make([]hashx.Hash, 0, len(l.forks))
	for h := range l.forks {
		out = append(out, h)
	}
	return out
}

// ForkCandidates returns all candidates for a contested predecessor: the
// attached incumbent first, then the detached rivals.
func (l *Lattice) ForkCandidates(prev hashx.Hash) ([]hashx.Hash, bool) {
	rivals, ok := l.forks[prev]
	if !ok {
		return nil, false
	}
	out := []hashx.Hash{l.successor[prev]}
	for _, r := range rivals {
		out = append(out, r.Hash())
	}
	return out, true
}

// ResolveFork applies a representative-vote outcome (§III-B): the winner
// stays or replaces the incumbent. Only head-level forks can swing — a
// rival can replace the incumbent only while the incumbent is the chain
// head (it has not been built upon); Nano's voting likewise settles forks
// before dependents are confirmed.
func (l *Lattice) ResolveFork(prev, winner hashx.Hash) error {
	rivals, ok := l.forks[prev]
	if !ok {
		return ErrUnknownFork
	}
	incumbent := l.successor[prev]
	if winner == incumbent {
		delete(l.forks, prev)
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
	c := l.chains[win.Account]
	if c.head != incumbent {
		return ErrNotAtHead
	}
	// Roll back the incumbent...
	loser := l.byHash[incumbent]
	switch loser.Type {
	case Send:
		delete(l.pending, incumbent)
	case Receive:
		prevBlk := l.byHash[loser.Prev]
		amount := loser.Balance - prevBlk.Balance
		l.pending[loser.Source] = Pending{Destination: loser.Account, Amount: amount}
		delete(l.settled, loser.Source)
	}
	delete(l.byHash, incumbent)
	c.blocks = c.blocks[:len(c.blocks)-1]
	c.head = loser.Prev
	delete(l.successor, prev)
	// ...and attach the winner through the normal path.
	res := l.processOne(win)
	if res.Status != Accepted {
		return fmt.Errorf("lattice: fork winner failed to attach: %v (%v)", res.Status, res.Err)
	}
	delete(l.forks, prev)
	l.drainGaps(win, nil)
	return nil
}

// Clone returns an independent replica of the lattice: every map and
// chain slice is copied, while the immutable *Block values are shared
// (block content never changes after signing, and the Hash/VerifySig
// memos only ever move toward the computed-once state). Network
// simulations use it to stamp out one replica per node from a single
// replayed template instead of re-validating the same setup stream N
// times — at mega-scale node counts that replay is the entire setup
// cost. The clone and the original evolve independently afterwards. The
// gap buffer's eviction hook is per-replica state and is not carried
// over — each owner installs its own.
func (l *Lattice) Clone() *Lattice {
	c := &Lattice{
		workBits:  l.workBits,
		chains:    make(map[keys.Address]*accountChain, len(l.chains)),
		byHash:    make(map[hashx.Hash]*Block, len(l.byHash)),
		pending:   make(map[hashx.Hash]Pending, len(l.pending)),
		settled:   make(map[hashx.Hash]bool, len(l.settled)),
		forks:     make(map[hashx.Hash][]*Block, len(l.forks)),
		successor: make(map[hashx.Hash]hashx.Hash, len(l.successor)),
		gaps:      l.gaps.Clone(),
		supply:    l.supply,
		genesis:   l.genesis,
	}
	for addr, ch := range l.chains {
		blocks := make([]*Block, len(ch.blocks))
		copy(blocks, ch.blocks)
		c.chains[addr] = &accountChain{blocks: blocks, head: ch.head}
	}
	for h, b := range l.byHash {
		c.byHash[h] = b
	}
	for h, p := range l.pending {
		c.pending[h] = p
	}
	for h := range l.settled {
		c.settled[h] = true
	}
	for h, rs := range l.forks {
		c.forks[h] = append([]*Block(nil), rs...)
	}
	for h, s := range l.successor {
		c.successor[h] = s
	}
	return c
}

// RepWeights computes each representative's voting weight: "the sum of
// all balances for accounts that chose this representative" (§III-B).
// Pending (unsettled) amounts back no representative until received.
func (l *Lattice) RepWeights() map[keys.Address]uint64 {
	out := make(map[keys.Address]uint64, len(l.chains))
	for _, c := range l.chains {
		head := l.byHash[c.head]
		if head.Balance > 0 {
			out[head.Representative] += head.Balance
		}
	}
	return out
}

// CheckInvariant verifies value conservation: settled balances plus
// pending amounts equal the issued supply.
func (l *Lattice) CheckInvariant() error {
	var total uint64
	for _, c := range l.chains {
		total += l.byHash[c.head].Balance
	}
	total += l.PendingTotal()
	if total != l.supply {
		return fmt.Errorf("lattice: conservation violated: %d != supply %d", total, l.supply)
	}
	return nil
}

// LedgerBytes returns the modeled full-history ledger size, what §V-B's
// "historical" nodes store.
func (l *Lattice) LedgerBytes() int { return l.BlockCount() * wireSize }

// HeadBytes returns the modeled size after head-only pruning, what §V-B's
// "current" nodes keep ("accounts keep record of account balances instead
// of unspent transaction inputs, [so] all other historical data can be
// discarded").
func (l *Lattice) HeadBytes() int { return l.Accounts() * wireSize }

// NewSend builds a signed send block for the key pair's account. The
// caller supplies the lattice to read the current head and balance;
// newBalance must be below the current balance.
func (l *Lattice) NewSend(kp *keys.KeyPair, dest keys.Address, amount uint64) (*Block, error) {
	head, ok := l.HeadBlock(kp.Address())
	if !ok {
		return nil, ErrNotOpened
	}
	if head.Balance < amount {
		return nil, fmt.Errorf("lattice: balance %d below send amount %d", head.Balance, amount)
	}
	b := &Block{
		Type:           Send,
		Account:        kp.Address(),
		Prev:           head.Hash(),
		Representative: head.Representative,
		Balance:        head.Balance - amount,
		Destination:    dest,
	}
	b.sign(kp)
	if l.workBits > 0 && !b.SolveWork(l.workBits, 1<<40) {
		return nil, ErrBadWork
	}
	return b, nil
}

// NewReceive builds a signed receive block settling the given send.
func (l *Lattice) NewReceive(kp *keys.KeyPair, source hashx.Hash) (*Block, error) {
	p, ok := l.pending[source]
	if !ok {
		return nil, fmt.Errorf("lattice: source %s not pending", source)
	}
	head, ok := l.HeadBlock(kp.Address())
	if !ok {
		return nil, ErrNotOpened
	}
	b := &Block{
		Type:           Receive,
		Account:        kp.Address(),
		Prev:           head.Hash(),
		Representative: head.Representative,
		Balance:        head.Balance + p.Amount,
		Source:         source,
	}
	b.sign(kp)
	if l.workBits > 0 && !b.SolveWork(l.workBits, 1<<40) {
		return nil, ErrBadWork
	}
	return b, nil
}

// NewOpen builds a signed open block for an unopened account, settling
// its first pending send and electing a representative.
func (l *Lattice) NewOpen(kp *keys.KeyPair, source hashx.Hash, rep keys.Address) (*Block, error) {
	p, ok := l.pending[source]
	if !ok {
		return nil, fmt.Errorf("lattice: source %s not pending", source)
	}
	b := &Block{
		Type:           Open,
		Account:        kp.Address(),
		Representative: rep,
		Balance:        p.Amount,
		Source:         source,
	}
	b.sign(kp)
	if l.workBits > 0 && !b.SolveWork(l.workBits, 1<<40) {
		return nil, ErrBadWork
	}
	return b, nil
}

// NewChange builds a signed representative change block ("it must choose a
// representative that can be changed over time", §III-B).
func (l *Lattice) NewChange(kp *keys.KeyPair, rep keys.Address) (*Block, error) {
	head, ok := l.HeadBlock(kp.Address())
	if !ok {
		return nil, ErrNotOpened
	}
	b := &Block{
		Type:           Change,
		Account:        kp.Address(),
		Prev:           head.Hash(),
		Representative: rep,
		Balance:        head.Balance,
	}
	b.sign(kp)
	if l.workBits > 0 && !b.SolveWork(l.workBits, 1<<40) {
		return nil, ErrBadWork
	}
	return b, nil
}

// NewForkSend builds a signed send that deliberately claims an arbitrary
// predecessor — the "malicious attack or bad programming" fork generator
// used by the §IV-B experiments. prevBalance must be the balance at prev.
func NewForkSend(kp *keys.KeyPair, prev hashx.Hash, prevBalance uint64, dest keys.Address, amount uint64, rep keys.Address, workBits int) (*Block, error) {
	if prevBalance < amount {
		return nil, fmt.Errorf("lattice: fork send amount %d exceeds balance %d", amount, prevBalance)
	}
	b := &Block{
		Type:           Send,
		Account:        kp.Address(),
		Prev:           prev,
		Representative: rep,
		Balance:        prevBalance - amount,
		Destination:    dest,
	}
	b.sign(kp)
	if workBits > 0 && !b.SolveWork(workBits, 1<<40) {
		return nil, ErrBadWork
	}
	return b, nil
}
