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
//
//   - Content is separate from state (see internal/catalog). Every block
//     the replicas of one network attach enters one catalog, whose entry
//     holds the *Block and its predecessor's id; beside it sits one
//     account → dense id map. Both are written only by Process and
//     ResolveFork. A replica (New, or Clone of another replica) holds
//     only its state over those ids: a head id per account, bitsets of
//     attached blocks and settled sends, and a successor id column. A
//     send is pending exactly when it is attached and not settled, and
//     its destination and amount are read from the catalog.
//   - Block content is immutable after signing: the catalog stores one
//     pointer per block for every replica, and Block.Hash memoizes its
//     digest on that pointer. The lattice keeps no pointer override: a
//     replica that attaches a same-hash copy reads the catalog's pointer
//     back.
//   - There is one validation path: ProcessBatch is an in-order loop
//     over Process, and nothing validates on more than one goroutine.
package lattice

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/backlog"
	"repro/internal/bitset"
	"repro/internal/catalog"
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
	// PubKey and the signature (Sig) authenticate the account owner.
	PubKey ed25519.PublicKey
	sig    []byte

	// verified holds the signature verdict and how to make the bytes
	// (see keys.SigMemo). In a network simulation the same *Block floods
	// every node and the wallet that signed it bound the verdict, so an
	// honest block never costs an ed25519 check, nor a signature unless
	// something reads it; a signature or PubKey changed after acceptance
	// misses and is checked in full.
	verified keys.SigMemo

	// memoSelf/memoHash cache the content hash. The cache is valid only
	// while memoSelf still points at this exact Block value, so a copied
	// or moved block (memoSelf != &copy) silently re-hashes instead of
	// reading a stale digest — value copies stay safe without a noCopy
	// guard. Content fields are never mutated after the first Hash call
	// (blocks are signed over the digest immediately after construction),
	// which is the invariant that makes the memo sound.
	memoSelf *Block
	memoHash hashx.Hash
	// idMemo caches the block's id in its network's catalog index (see
	// catalog.Memo). With the hash memo it fills the block's last 64
	// bytes, one cache line of its 384-byte size class, which an id read
	// after Hash has already loaded.
	idMemo catalog.Memo
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

// contentHash hashes the content, out of line so that Hash's memo read
// inlines.
func (b *Block) contentHash() hashx.Hash { return hashx.Sum(b.contentBytes()) }

// Hash returns the block identifier, memoized on first use. Not safe
// for a concurrent FIRST call on the same pointer.
func (b *Block) Hash() hashx.Hash {
	if b.memoSelf != b {
		b.memoHash, b.memoSelf = b.contentHash(), b
	}
	return b.memoHash
}

// IDIn returns the block's id in the catalog index x, handing one out at
// first sight, from its memo after the first call with x.
func (b *Block) IDIn(x *catalog.Index) uint32 { return x.InternMemo(&b.idMemo, b.Hash()) }

// sign fills PubKey and the signature, whose bytes are made on first
// read.
func (b *Block) sign(kp *keys.KeyPair) {
	b.PubKey, b.sig = kp.Pub, nil
	kp.SignMemo(&b.verified, b.Account, b.Hash())
}

// Sig returns the owner's signature over Hash(), making it on the first
// call. Like Hash, not safe for a concurrent FIRST call on the same
// pointer.
func (b *Block) Sig() []byte { return b.verified.Sig(&b.sig) }

// WithSig returns a copy of b carrying sig and no verdict, which
// therefore verifies in full.
func (b *Block) WithSig(sig []byte) *Block {
	cp := *b
	cp.sig, cp.verified = sig, keys.SigMemo{}
	return &cp
}

// VerifySig checks the owner signature and the key/account binding. The
// verdict is memoized per pointer (see verified): every replica reads it
// instead of running ed25519.
func (b *Block) VerifySig() bool {
	return b.verified.Verify(b.Account, b.Hash(), b.PubKey, &b.sig)
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

// catEntry is one catalogued block, its predecessor's id (0 for opens)
// and the id of the send it settles (0 unless an open or a receive).
type catEntry struct {
	block  *Block
	prev   uint32
	source uint32
}

// Lattice is one node's replica of the DAG: which catalog blocks sit on
// its account chains, which sends it has settled, the fork records
// awaiting votes, and its gap buffers. A send is pending exactly when it
// is attached here and not settled here.
type Lattice struct {
	workBits int
	cat      *catalog.Catalog[uint32, catEntry]
	// accts maps an account to its dense id: content beside the catalog,
	// shared by every Clone.
	accts map[keys.Address]uint32
	// heads maps a catalog account id to the id of that account's head
	// block here; 0 (or past the end) means not opened here.
	heads []uint32
	// attached holds the ids on this replica's account chains; settled
	// the send ids an attached open or receive has settled here.
	attached, settled bitset.Set
	// succ maps an attached block's id to its attached successor's id.
	succ []uint32
	// forks maps a contested predecessor to the detached rival blocks;
	// nil until the first fork.
	forks map[hashx.Hash][]*Block
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
// meet (0 disables work checks, useful in unit tests). The lattice gets a
// catalog of its own; Clone makes further replicas of the same network.
func New(genesisOwner *keys.KeyPair, supply uint64, workBits int) (*Lattice, *Block, error) {
	cat := catalog.New[uint32, catEntry]()
	l := &Lattice{
		workBits: workBits,
		cat:      &cat,
		accts:    make(map[keys.Address]uint32),
		gaps:     backlog.New[gapKey, *Block](DefaultGapLimit),
		supply:   supply,
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
	l.genesis = genesis.Hash()
	l.link(genesis, l.genesis, 0, 0, 0)
	return l, genesis, nil
}

// Index returns the id index of the network's block catalog.
func (l *Lattice) Index() *catalog.Index { return l.cat.Index() }

// Genesis returns the genesis block hash.
func (l *Lattice) Genesis() hashx.Hash { return l.genesis }

// Supply returns the total issued value.
func (l *Lattice) Supply() uint64 { return l.supply }

// WorkBits returns the anti-spam difficulty.
func (l *Lattice) WorkBits() int { return l.workBits }

// headID returns the id of addr's head block here, 0 if not opened here.
func (l *Lattice) headID(addr keys.Address) uint32 {
	a, ok := l.accts[addr]
	if !ok || int(a) >= len(l.heads) {
		return 0
	}
	return l.heads[a]
}

// successor returns the id of the block attached after id here, 0 if none.
func (l *Lattice) successor(id uint32) uint32 {
	if int(id) >= len(l.succ) {
		return 0
	}
	return l.succ[id]
}

// block returns the block with this id, nil for id 0.
func (l *Lattice) block(id uint32) *Block { return l.cat.At(id).block }

// amount is what the send with this id moves: its predecessor's balance
// less its own.
func (l *Lattice) amount(id uint32) uint64 {
	e := l.cat.At(id)
	return l.block(e.prev).Balance - e.block.Balance
}

// hashOf returns the hash of the block with this id, zero for id 0.
func (l *Lattice) hashOf(id uint32) hashx.Hash {
	if id == 0 {
		return hashx.Zero
	}
	return l.block(id).Hash()
}

// lookup returns the id of the block with hash h if it is attached here.
func (l *Lattice) lookup(h hashx.Hash) (uint32, bool) {
	id := l.cat.ID(h)
	return id, id != 0 && l.attached.Has(id)
}

// isPending reports whether id is a send attached and unsettled here.
func (l *Lattice) isPending(id uint32) bool {
	return l.attached.Has(id) && !l.settled.Has(id) && l.block(id).Type == Send
}

// eachPending calls fn for every pending send here, in catalog id order.
func (l *Lattice) eachPending(fn func(id uint32)) {
	for w, word := range l.attached {
		if w < len(l.settled) {
			word &^= l.settled[w]
		}
		for ; word != 0; word &= word - 1 {
			if id := uint32(w<<6 + bits.TrailingZeros64(word)); l.block(id).Type == Send {
				fn(id)
			}
		}
	}
}

// Head returns an account's chain head hash.
func (l *Lattice) Head(addr keys.Address) (hashx.Hash, bool) {
	id := l.headID(addr)
	return l.hashOf(id), id != 0
}

// HeadBlock returns an account's chain head block.
func (l *Lattice) HeadBlock(addr keys.Address) (*Block, bool) {
	id := l.headID(addr)
	return l.block(id), id != 0
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

// Get returns a block by hash. A block other replicas of the network hold
// but this one has not attached does not exist here.
func (l *Lattice) Get(h hashx.Hash) (*Block, bool) {
	id, ok := l.lookup(h)
	if !ok {
		return nil, false
	}
	return l.block(id), true
}

// appendChain appends the chain that ends at head, oldest first.
func (l *Lattice) appendChain(out []*Block, head uint32) []*Block {
	start := len(out)
	for id := head; id != 0; id = l.cat.At(id).prev {
		out = append(out, l.block(id))
	}
	slices.Reverse(out[start:])
	return out
}

// ChainLen returns the number of blocks on an account's chain.
func (l *Lattice) ChainLen(addr keys.Address) int {
	n := 0
	for id := l.headID(addr); id != 0; id = l.cat.At(id).prev {
		n++
	}
	return n
}

// Chain returns a copy of the account's block sequence, oldest first.
func (l *Lattice) Chain(addr keys.Address) []*Block {
	return l.appendChain(nil, l.headID(addr))
}

// Accounts returns the number of opened accounts.
func (l *Lattice) Accounts() int {
	n := 0
	for _, head := range l.heads {
		if head != 0 {
			n++
		}
	}
	return n
}

// AllBlocks returns every attached block in a deterministic order:
// accounts sorted by address, each account's chain oldest-first. Churn
// recovery uses it as the catch-up stream a live peer replays to a
// rejoining node — per-chain order minimizes gap buffering at the
// receiver (in-order delivery attaches directly; reordered delivery
// settles through the gap buffers), and the fixed account order keeps
// replay byte-reproducible across runs.
func (l *Lattice) AllBlocks() []*Block {
	type opened struct {
		addr keys.Address
		head uint32
	}
	var accts []opened
	for addr, a := range l.accts {
		if int(a) < len(l.heads) && l.heads[a] != 0 {
			accts = append(accts, opened{addr, l.heads[a]})
		}
	}
	sort.Slice(accts, func(i, j int) bool {
		return bytes.Compare(accts[i].addr[:], accts[j].addr[:]) < 0
	})
	out := make([]*Block, 0, l.BlockCount())
	for _, a := range accts {
		out = l.appendChain(out, a.head)
	}
	return out
}

// Attached returns the catalog ids of the blocks attached here (rivals
// and buffered blocks excluded), the replica's own set rather than a
// copy: read it, do not keep it, since a later attach may grow it into a
// new array.
func (l *Lattice) Attached() bitset.Set { return l.attached }

// BlockCount returns the number of attached blocks (rivals and buffered
// blocks excluded).
func (l *Lattice) BlockCount() int { return l.attached.Count() }

// PendingFor lists the unsettled send hashes addressed to an account.
func (l *Lattice) PendingFor(addr keys.Address) []hashx.Hash {
	var out []hashx.Hash
	l.eachPending(func(id uint32) {
		if send := l.block(id); send.Destination == addr {
			out = append(out, send.Hash())
		}
	})
	return out
}

// PendingInfo returns the pending record of a send block.
func (l *Lattice) PendingInfo(send hashx.Hash) (Pending, bool) {
	id := l.cat.ID(send)
	if !l.isPending(id) {
		return Pending{}, false
	}
	return Pending{Destination: l.block(id).Destination, Amount: l.amount(id)}, true
}

// PendingCount returns the number of unsettled sends.
func (l *Lattice) PendingCount() int {
	n := 0
	l.eachPending(func(uint32) { n++ })
	return n
}

// PendingTotal returns the total unsettled value.
func (l *Lattice) PendingTotal() uint64 {
	var t uint64
	l.eachPending(func(id uint32) { t += l.amount(id) })
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

// ProcessBatch processes blocks through Process in input order and
// returns one result per block, so the lattice state and the results are
// those of the serial calls by construction (fuzzed by
// FuzzLatticeProcessBatch). workers is ignored: a node's hardware bound
// is modelled in simulated time, not with host goroutines.
func (l *Lattice) ProcessBatch(blocks []*Block, workers int) []Result {
	results := make([]Result, len(blocks))
	for i, b := range blocks {
		results[i] = l.Process(b)
	}
	return results
}

func (l *Lattice) processOne(b *Block) Result {
	h := b.Hash()
	id, e := l.cat.Lookup(&b.idMemo, h)
	if l.attached.Has(id) {
		return Result{Status: Duplicate}
	}
	if e.block == nil {
		id = 0 // no replica has attached it yet
	}
	if !b.VerifySig() {
		return Result{Status: Rejected, Err: ErrBadSignature}
	}
	if l.workBits > 0 && !b.VerifyWork(l.workBits) {
		return Result{Status: Rejected, Err: ErrBadWork}
	}
	switch b.Type {
	case Open:
		return l.processOpen(b, h, id)
	case Send, Receive, Change:
		return l.processChained(b, h, id)
	default:
		return Result{Status: Rejected, Err: fmt.Errorf("lattice: unknown block type %d", b.Type)}
	}
}

// processOpen attaches an open block; id is its catalog id, 0 if no
// replica has attached it yet.
func (l *Lattice) processOpen(b *Block, h hashx.Hash, id uint32) Result {
	if l.headID(b.Account) != 0 {
		return Result{Status: Rejected, Err: ErrAlreadyOpened}
	}
	if !b.Prev.IsZero() {
		return Result{Status: Rejected, Err: errors.New("lattice: open block must have zero prev")}
	}
	src, amount, err := l.source(b, id)
	if err != nil {
		return l.parkOrReject(b, err)
	}
	if b.Balance != amount {
		return Result{Status: Rejected, Err: fmt.Errorf("%w: open balance %d, pending %d", ErrBadBalance, b.Balance, amount)}
	}
	l.settled.Add(src)
	l.link(b, h, id, 0, src)
	return Result{Status: Accepted, Settled: b.Source}
}

// processChained attaches or records as a fork rival a send, receive or
// change block; id as for processOpen. The content hash covers Prev and
// Source, so for a block the catalog holds their ids are read from its
// entry rather than looked up by hash.
func (l *Lattice) processChained(b *Block, h hashx.Hash, id uint32) Result {
	head := l.headID(b.Account)
	if head == 0 {
		l.parkPrev(b)
		return Result{Status: GapPrevious}
	}
	var pid uint32
	if id != 0 {
		pid = l.cat.At(id).prev
	} else {
		pid = l.cat.ID(b.Prev)
	}
	if !l.attached.Has(pid) || l.block(pid).Account != b.Account {
		l.parkPrev(b)
		return Result{Status: GapPrevious}
	}
	src, err := l.validateAgainstPrev(b, l.block(pid), id)
	if err != nil {
		return l.parkOrReject(b, err)
	}
	if pid != head {
		// The predecessor already has a successor: a fork (§IV-B, "two
		// transactions may claim the same predecessor causing a fork").
		for _, r := range l.forks[b.Prev] {
			if r.Hash() == h {
				return Result{Status: Duplicate}
			}
		}
		if l.forks == nil {
			l.forks = make(map[hashx.Hash][]*Block)
		}
		l.forks[b.Prev] = append(l.forks[b.Prev], b)
		return Result{Status: AcceptedFork, ForkRivals: l.candidates(b.Prev, pid)}
	}
	res := Result{Status: Accepted}
	if b.Type == Receive {
		l.settled.Add(src)
		res.Settled = b.Source
	}
	l.link(b, h, id, pid, src)
	return res
}

// source resolves the send an open or receive settles: its id and amount
// when it is pending here and addressed to b's account. A send this
// replica does not hold pending is a gap (errGapSource) unless it already
// settled here. self is b's catalog id, 0 if the catalog does not hold b;
// a held b names its send's id in its entry.
func (l *Lattice) source(b *Block, self uint32) (uint32, uint64, error) {
	var id uint32
	if self != 0 {
		id = l.cat.At(self).source
	} else {
		id = l.cat.ID(b.Source)
	}
	if !l.isPending(id) {
		if l.settled.Has(id) {
			return 0, 0, errors.New("lattice: source already settled")
		}
		return 0, 0, errGapSource
	}
	if l.block(id).Destination != b.Account {
		return 0, 0, ErrWrongDest
	}
	return id, l.amount(id), nil
}

// parkOrReject turns a validation error into a result: a missing source
// parks the block, anything else rejects it.
func (l *Lattice) parkOrReject(b *Block, err error) Result {
	if errors.Is(err, errGapSource) {
		l.parkSource(b)
		return Result{Status: GapSource}
	}
	return Result{Status: Rejected, Err: err}
}

// validateAgainstPrev checks type-specific balance rules relative to the
// claimed predecessor. For a receive it returns the id of the send it
// settles. self is b's catalog id, as for source.
func (l *Lattice) validateAgainstPrev(b, prev *Block, self uint32) (uint32, error) {
	switch b.Type {
	case Send:
		if b.Balance >= prev.Balance {
			return 0, fmt.Errorf("%w: send must decrease balance (%d -> %d)", ErrBadBalance, prev.Balance, b.Balance)
		}
		if b.Destination.IsZero() {
			return 0, errors.New("lattice: send without destination")
		}
	case Receive:
		src, amount, err := l.source(b, self)
		if err != nil {
			return 0, err
		}
		if b.Balance != prev.Balance+amount {
			return 0, fmt.Errorf("%w: receive balance %d, want %d", ErrBadBalance, b.Balance, prev.Balance+amount)
		}
		return src, nil
	case Change:
		if b.Balance != prev.Balance {
			return 0, fmt.Errorf("%w: change must not move value", ErrBadBalance)
		}
	default:
		return 0, fmt.Errorf("lattice: type %s cannot chain", b.Type)
	}
	return 0, nil
}

// errGapSource is an internal sentinel turned into GapSource status.
var errGapSource = errors.New("lattice: source not yet pending")

// link attaches a validated block at the head of its chain, after the
// block with id pid (0 for an open), settling the send with id src (0 for
// none). id is the block's catalog id, 0 if no replica has attached it
// yet: the catalog entry is written here, the one place a replica adds
// content.
func (l *Lattice) link(b *Block, h hashx.Hash, id, pid, src uint32) {
	if id == 0 {
		id = l.cat.Add(h, catEntry{block: b, prev: pid, source: src})
	}
	l.attached.Add(id)
	a, ok := l.accts[b.Account]
	if !ok {
		a = uint32(len(l.accts))
		l.accts[b.Account] = a
	}
	if int(a) >= len(l.heads) {
		l.heads = append(l.heads, make([]uint32, int(a)+1-len(l.heads))...)
	}
	l.heads[a] = id
	if pid != 0 {
		if int(pid) >= len(l.succ) {
			l.succ = append(l.succ, make([]uint32, int(pid)+1-len(l.succ))...)
		}
		l.succ[pid] = id
	}
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

// candidates lists a contested predecessor's candidates: the attached
// successor of pid first, then the detached rivals.
func (l *Lattice) candidates(prev hashx.Hash, pid uint32) []hashx.Hash {
	out := []hashx.Hash{l.hashOf(l.successor(pid))}
	for _, r := range l.forks[prev] {
		out = append(out, r.Hash())
	}
	return out
}

// ForkCandidates returns all candidates for a contested predecessor: the
// attached incumbent first, then the detached rivals.
func (l *Lattice) ForkCandidates(prev hashx.Hash) ([]hashx.Hash, bool) {
	if _, ok := l.forks[prev]; !ok {
		return nil, false
	}
	return l.candidates(prev, l.cat.ID(prev)), true
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
	pid := l.cat.ID(prev)
	incumbent := l.successor(pid)
	if winner == l.hashOf(incumbent) {
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
	a := l.accts[win.Account]
	if l.heads[a] != incumbent {
		return ErrNotAtHead
	}
	// Roll back the incumbent: a send's pending entry goes with its
	// attached bit, a receive's source becomes pending again...
	if e := l.cat.At(incumbent); e.block.Type == Receive {
		l.settled.Remove(e.source)
	}
	l.attached.Remove(incumbent)
	l.heads[a] = pid
	l.succ[pid] = 0
	// ...and attach the winner through the normal path.
	res := l.processOne(win)
	if res.Status != Accepted {
		return fmt.Errorf("lattice: fork winner failed to attach: %v (%v)", res.Status, res.Err)
	}
	delete(l.forks, prev)
	l.drainGaps(win, nil)
	return nil
}

// Clone returns another replica of the lattice's network, in the same
// state: it shares the catalog — block content, immutable after signing —
// and copies only the per-replica columns, bitsets and fork records.
// Network simulations use it to stamp out one replica per node from a
// single replayed template instead of re-validating the same setup stream
// N times — at mega-scale node counts that replay is the entire setup
// cost. The clone and the original evolve independently afterwards but
// must stay on one goroutine, as their catalog does. The gap buffer's
// eviction hook is per-replica state and is not carried over — each owner
// installs its own.
func (l *Lattice) Clone() *Lattice {
	c := *l
	c.heads = slices.Clone(l.heads)
	c.attached = slices.Clone(l.attached)
	c.settled = slices.Clone(l.settled)
	c.succ = slices.Clone(l.succ)
	c.forks = nil
	for h, rs := range l.forks {
		if c.forks == nil {
			c.forks = make(map[hashx.Hash][]*Block, len(l.forks))
		}
		c.forks[h] = slices.Clone(rs)
	}
	c.gaps = l.gaps.Clone()
	return &c
}

// RepWeights computes each representative's voting weight: "the sum of
// all balances for accounts that chose this representative" (§III-B).
// Pending (unsettled) amounts back no representative until received.
func (l *Lattice) RepWeights() map[keys.Address]uint64 {
	out := make(map[keys.Address]uint64, len(l.heads))
	for _, id := range l.heads {
		if head := l.block(id); id != 0 && head.Balance > 0 {
			out[head.Representative] += head.Balance
		}
	}
	return out
}

// CheckInvariant verifies value conservation: settled balances plus
// pending amounts equal the issued supply.
func (l *Lattice) CheckInvariant() error {
	var total uint64
	for _, id := range l.heads {
		if id != 0 {
			total += l.block(id).Balance
		}
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
	p, ok := l.PendingInfo(source)
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
	p, ok := l.PendingInfo(source)
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
