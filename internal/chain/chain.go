// Package chain implements the generic blockchain data structure of paper
// §II-A — ordered blocks whose headers reference their predecessor's hash —
// together with the machinery §IV-A describes: competing tips ("soft
// forks"), longest/heaviest-chain fork choice, reorganizations that orphan
// blocks, and confirmation-depth queries ("number of blocks appended above
// the referent one").
//
// The package is payload-agnostic: Bitcoin-style UTXO bodies
// (internal/utxo) and Ethereum-style state bodies (internal/account) both
// plug in through the Payload interface.
//
// Performance invariants (tracked by internal/perf, gated in CI):
//
//   - Content is separate from state (see internal/catalog). Every block
//     the stores of one network attach enters one catalog, whose entry
//     holds the *Block, its parent id, height and cumulative work. A
//     store (NewStore, or Replica of another store) holds only its state
//     over those ids: a bitset of attached blocks, a height-indexed
//     column of main-chain ids, its tip's hash and counters, and its
//     orphan pool.
//   - Headers are immutable once a block reaches a Store or the network —
//     mining and difficulty stamping happen strictly before the first
//     Block.Hash call — which is what lets Block.Hash memoize the
//     double-SHA-256 digest instead of recomputing it at every gossip hop,
//     dedup check and store insertion, and what lets one catalog entry
//     stand for the block at every store of the network.
package chain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/backlog"
	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/hashx"
	"repro/internal/keys"
)

// Header is a block header: the metadata every node validates and relays.
type Header struct {
	// Parent is the predecessor's hash; hashx.Zero only for genesis.
	Parent hashx.Hash
	// Height is the distance from genesis (genesis = 0).
	Height uint64
	// Time is the virtual timestamp the block was created at.
	Time time.Duration
	// TxRoot commits to the block's payload (e.g. a Merkle root).
	TxRoot hashx.Hash
	// StateRoot commits to the post-state (account-model chains).
	StateRoot hashx.Hash
	// Difficulty is the expected number of hash attempts this block's
	// proof of work required; it is also the block's fork-choice weight.
	Difficulty float64
	// Nonce is the proof-of-work free variable (§III-A1).
	Nonce uint64
	// Proposer identifies the miner or validator that created the block.
	Proposer keys.Address
}

// headerWireSize is the modeled serialized size of a header in bytes
// (Bitcoin's is 80; ours carries an extra state root and proposer).
const headerWireSize = 32 + 8 + 8 + 32 + 32 + 8 + 8 + keys.AddressSize

// EncodedSize returns the modeled wire size of the header.
func (h *Header) EncodedSize() int { return headerWireSize }

// Hash returns the header's double-SHA-256 digest, the block identifier.
func (h *Header) Hash() hashx.Hash {
	var buf [headerWireSize]byte
	off := 0
	copy(buf[off:], h.Parent[:])
	off += 32
	binary.BigEndian.PutUint64(buf[off:], h.Height)
	off += 8
	binary.BigEndian.PutUint64(buf[off:], uint64(h.Time))
	off += 8
	copy(buf[off:], h.TxRoot[:])
	off += 32
	copy(buf[off:], h.StateRoot[:])
	off += 32
	binary.BigEndian.PutUint64(buf[off:], uint64(h.Difficulty))
	off += 8
	binary.BigEndian.PutUint64(buf[off:], h.Nonce)
	off += 8
	copy(buf[off:], h.Proposer[:])
	return hashx.SumDouble(buf[:])
}

// Payload is the block body. Implementations commit to their content via
// Root, which validation checks against the header's TxRoot.
type Payload interface {
	// Root is the commitment the header's TxRoot must equal.
	Root() hashx.Hash
	// Size is the serialized body size in bytes.
	Size() int
	// TxCount is the number of transactions carried.
	TxCount() int
}

// Block is a header plus its payload.
type Block struct {
	Header  Header
	Payload Payload

	// memoSelf/memoHash cache the header hash. The cache is valid only
	// while memoSelf still points at this exact Block value, so value
	// copies silently re-hash instead of reading a stale digest. Sound
	// because headers are immutable once the block enters a store or the
	// network: mining (pow.MineHeader) and production-time difficulty
	// stamping both finish before the first Block.Hash call.
	memoSelf *Block
	memoHash hashx.Hash
	// idMemo caches the block's id in its network's catalog index (see
	// catalog.Memo).
	idMemo catalog.Memo
}

// IDIn returns the block's id in the catalog index x, handing one out at
// first sight, from its memo after the first call with x.
func (b *Block) IDIn(x *catalog.Index) uint32 { return x.InternMemo(&b.idMemo, b.Hash()) }

// Hash returns the block identifier (the header hash), memoized on
// first use. A block is hashed at every gossip hop, dedup check and
// store insertion; the memo makes all but the first free.
func (b *Block) Hash() hashx.Hash {
	if b.memoSelf != b {
		b.memoHash, b.memoSelf = b.Header.Hash(), b
	}
	return b.memoHash
}

// Size returns the total modeled wire size.
func (b *Block) Size() int {
	sz := b.Header.EncodedSize()
	if b.Payload != nil {
		sz += b.Payload.Size()
	}
	return sz
}

// TxCount returns the number of transactions in the block body.
func (b *Block) TxCount() int {
	if b.Payload == nil {
		return 0
	}
	return b.Payload.TxCount()
}

// OpaquePayload is a payload with a synthetic content commitment, used by
// fork/propagation experiments that do not execute transactions.
type OpaquePayload struct {
	ID    hashx.Hash
	Bytes int
	Txs   int
}

var _ Payload = OpaquePayload{}

// Root implements Payload.
func (p OpaquePayload) Root() hashx.Hash { return p.ID }

// Size implements Payload.
func (p OpaquePayload) Size() int { return p.Bytes }

// TxCount implements Payload.
func (p OpaquePayload) TxCount() int { return p.Txs }

// ForkChoice selects which of two competing tips a node adopts.
type ForkChoice int

const (
	// LongestChain adopts the tip with the greatest height (paper §IV-A:
	// "The longer chain is adopted"). First-seen wins ties.
	LongestChain ForkChoice = iota + 1
	// HeaviestChain adopts the tip with the greatest cumulative
	// difficulty, Bitcoin's actual rule and the natural one once
	// difficulty varies. First-seen wins ties.
	HeaviestChain
)

// String returns the fork-choice rule's name.
func (f ForkChoice) String() string {
	switch f {
	case LongestChain:
		return "longest-chain"
	case HeaviestChain:
		return "heaviest-chain"
	default:
		return fmt.Sprintf("ForkChoice(%d)", int(f))
	}
}

// AddStatus classifies the result of Store.Add.
type AddStatus int

const (
	// Accepted means the block extended the main chain tip.
	Accepted AddStatus = iota + 1
	// AcceptedSide means the block was stored on a side chain (a soft
	// fork now exists, Fig. 4).
	AcceptedSide
	// AcceptedReorg means the block made a side chain win: the store
	// reorganized and previous main-chain blocks were orphaned.
	AcceptedReorg
	// Orphaned means the parent is unknown; the block waits in the
	// orphan pool until its parent arrives.
	Orphaned
	// Duplicate means the block was already known.
	Duplicate
	// Rejected means validation failed.
	Rejected
)

// String returns the status name.
func (s AddStatus) String() string {
	switch s {
	case Accepted:
		return "accepted"
	case AcceptedSide:
		return "accepted-side"
	case AcceptedReorg:
		return "accepted-reorg"
	case Orphaned:
		return "orphaned"
	case Duplicate:
		return "duplicate"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("AddStatus(%d)", int(s))
	}
}

// Reorg describes a main-chain switch: the blocks that left the main chain
// (now orphaned, their transactions needing re-inclusion, §IV-A) and the
// blocks that replaced them.
type Reorg struct {
	// Abandoned lists the hashes that left the main chain, old tip first.
	Abandoned []hashx.Hash
	// Adopted lists the hashes that joined, ancestor-to-tip order.
	Adopted []hashx.Hash
	// AbandonedTxs is the number of transactions orphaned by the switch.
	AbandonedTxs int
}

// Depth returns the number of abandoned blocks.
func (r *Reorg) Depth() int { return len(r.Abandoned) }

// AdoptedOrphan reports one block that left the orphan pool because its
// missing ancestor arrived, with what its (store-internal) insertion did.
// Ledgers replay these after handling the triggering block — without
// them, a cascade adoption would move the main chain while the state
// layer (UTXO set, tx index, mempool) silently stays behind.
type AdoptedOrphan struct {
	Block  *Block
	Status AddStatus
	// Reorg is non-nil when Status == AcceptedReorg.
	Reorg *Reorg
}

// AddResult reports what Store.Add did.
type AddResult struct {
	Status AddStatus
	// Err carries the validation failure when Status == Rejected.
	Err error
	// Reorg is non-nil when Status == AcceptedReorg.
	Reorg *Reorg
	// Adopted lists the orphan-pool blocks the insertion cascaded in,
	// in attachment order. Each carries its own status and reorg; the
	// caller must apply their state effects just like the first block's.
	Adopted []AdoptedOrphan
}

// Validator vets a block against its (known) parent before acceptance.
type Validator func(b, parent *Block) error

// Stats aggregates what happened to a store over its lifetime.
type Stats struct {
	BlocksAdded   int
	SideBlocks    int
	Reorgs        int
	MaxReorgDepth int
	OrphanedTotal int // blocks currently off the main chain
	TxsOnMain     int
	BytesOnMain   int
}

// BlockID is a block's dense id in the catalog the stores of its network
// share. The catalog's index hands ids out in first-sight order across
// the network (see internal/catalog); the genesis is 1 and 0 means no
// block.
type BlockID uint32

const genesisID BlockID = 1

// catEntry is one catalogued block: the block, its parent's id, and its
// height and cumulative work, kept beside the parent link so walks
// between ancestors and fork choice stay in the table.
type catEntry struct {
	block  *Block
	parent BlockID // 0 for the genesis
	height uint32
	work   float64 // cumulative difficulty, genesis through this block
}

// Store is one node's view of its network's blocks: which catalog blocks
// it has attached and which of them form its main chain under a
// fork-choice rule. It is not safe for concurrent use; in the
// discrete-event simulation each node owns one store.
type Store struct {
	cat      *catalog.Catalog[BlockID, catEntry]
	choice   ForkChoice
	validate Validator
	attached bitset.Set
	main     []BlockID  // height -> main-chain id, genesis through tip
	tipHash  hashx.Hash // the tip's hash, read on every ledger state query
	// own holds the blocks this store validated under another pointer
	// than the catalog's: the ones it serves and its ledger disconnects.
	own      catalog.Own[BlockID, *Block]
	orphans  backlog.Buffer[hashx.Hash, *Block] // parent hash -> waiting blocks
	reorgs   int
	maxReorg int
	sideSeen int
	added    int
}

// ErrUnknownBlock is returned by queries for hashes the store never saw.
var ErrUnknownBlock = errors.New("chain: unknown block")

// NewStore creates a store rooted at the genesis block (paper §II-A: "The
// initial state is hard-coded in the first block called the genesis
// block"), over a catalog of its own; Replica makes further stores of the
// same network.
func NewStore(genesis *Block, choice ForkChoice) (*Store, error) {
	if genesis == nil {
		return nil, errors.New("chain: nil genesis")
	}
	if !genesis.Header.Parent.IsZero() {
		return nil, errors.New("chain: genesis must have zero parent")
	}
	if genesis.Header.Height != 0 {
		return nil, errors.New("chain: genesis height must be 0")
	}
	cat := catalog.New[BlockID, catEntry]()
	cat.Add(genesis.Hash(), catEntry{block: genesis, work: genesis.Header.Difficulty})
	return storeOn(&cat, choice), nil
}

func storeOn(cat *catalog.Catalog[BlockID, catEntry], choice ForkChoice) *Store {
	s := &Store{
		cat:     cat,
		choice:  choice,
		main:    []BlockID{genesisID},
		tipHash: cat.At(genesisID).block.Hash(),
		orphans: backlog.New[hashx.Hash, *Block](DefaultOrphanLimit),
	}
	s.attached.Add(uint32(genesisID))
	return s
}

// Replica returns a new store at genesis for another node of s's network,
// whatever s has attached since: the two share the block catalog and keep
// their own state. The validator and the orphan pool's bounds and hook
// belong to each store and are not carried over. The stores of one
// network must stay on one goroutine, as their catalog does.
func (s *Store) Replica() *Store { return storeOn(s.cat, s.choice) }

// Index returns the id index of the network's block catalog.
func (s *Store) Index() *catalog.Index { return s.cat.Index() }

// SetValidator installs the payload/consensus validation hook.
func (s *Store) SetValidator(v Validator) { s.validate = v }

// block returns this store's pointer for an attached id.
func (s *Store) block(id BlockID) *Block { return s.own.Get(id, s.cat.At(id).block) }

// hash returns the hash of the block with this id.
func (s *Store) hash(id BlockID) hashx.Hash { return s.cat.At(id).block.Hash() }

// lookup returns the id of the block with hash h if it is attached here.
func (s *Store) lookup(h hashx.Hash) (BlockID, bool) {
	id := s.cat.ID(h)
	return id, id != 0 && s.attached.Has(uint32(id))
}

// tip returns the main-chain tip's id.
func (s *Store) tip() BlockID { return s.main[len(s.main)-1] }

func (s *Store) height(id BlockID) uint64 { return uint64(s.cat.At(id).height) }

// onMain reports whether the attached id is on the main chain here.
func (s *Store) onMain(id BlockID) bool {
	h := s.height(id)
	return h < uint64(len(s.main)) && s.main[h] == id
}

// Genesis returns the genesis hash.
func (s *Store) Genesis() hashx.Hash { return s.hash(genesisID) }

// Tip returns the current main-chain tip hash.
func (s *Store) Tip() hashx.Hash { return s.tipHash }

// TipBlock returns the current main-chain tip block.
func (s *Store) TipBlock() *Block { return s.block(s.tip()) }

// Height returns the main-chain height (genesis = 0).
func (s *Store) Height() uint64 { return uint64(len(s.main) - 1) }

// Len returns the number of stored blocks, side chains included.
func (s *Store) Len() int { return s.added + 1 }

// Get returns a block by hash. A block other stores of the network hold
// but this one has not attached does not exist here.
func (s *Store) Get(h hashx.Hash) (*Block, bool) {
	id, ok := s.lookup(h)
	if !ok {
		return nil, false
	}
	return s.block(id), true
}

// Attached returns the catalog ids of the blocks attached here (orphan
// pool excluded), the store's own set rather than a copy: read it, do not
// keep it, since a later attach may grow it into a new array.
func (s *Store) Attached() bitset.Set { return s.attached }

// HasBlock reports whether the hash is known (orphan pool excluded).
func (s *Store) HasBlock(h hashx.Hash) bool {
	_, ok := s.lookup(h)
	return ok
}

// IDOf returns the catalog id of an attached block, the handle state
// layers index per-block content by.
func (s *Store) IDOf(h hashx.Hash) (BlockID, bool) { return s.lookup(h) }

// CumulativeWork returns the total difficulty from genesis through h.
func (s *Store) CumulativeWork(h hashx.Hash) (float64, error) {
	id, ok := s.lookup(h)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownBlock, h)
	}
	return s.cat.At(id).work, nil
}

// Add inserts a block, updating the main chain per the fork-choice rule.
// Blocks whose parent is unknown wait in the orphan pool and are retried
// automatically when the parent arrives; the result's Status/Reorg
// describe the first block, and Adopted lists every orphan the insertion
// cascaded in so state layers can replay their effects too.
func (s *Store) Add(b *Block) AddResult {
	s.orphans.Expire()
	res := s.addOne(b)
	if res.Status == Accepted || res.Status == AcceptedSide || res.Status == AcceptedReorg {
		res.Adopted = s.adoptOrphansOf(b.Hash())
	}
	return res
}

// addOne inserts a single block without adopting orphans. The header
// hash covers the parent, so for a block the catalog holds the parent's
// id is read from its entry rather than looked up by hash.
func (s *Store) addOne(b *Block) AddResult {
	h := b.Hash()
	id, e := s.cat.Lookup(&b.idMemo, h)
	if s.attached.Has(uint32(id)) {
		return AddResult{Status: Duplicate}
	}
	held := e.block != nil // the catalog holds b: some store attached it
	var pid BlockID
	if held {
		pid = e.parent
	} else {
		pid = s.cat.ID(b.Header.Parent)
	}
	if !s.attached.Has(uint32(pid)) {
		s.orphans.Park(b.Header.Parent, b)
		return AddResult{Status: Orphaned}
	}
	parent := s.block(pid)
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

	// The catalog entry is written here, on the block's first attach in
	// the network; a later store that validated another pointer under the
	// same hash keeps that pointer as its own.
	if !held {
		id = s.cat.Add(h, catEntry{
			block:  b,
			parent: pid,
			height: uint32(b.Header.Height),
			work:   s.cat.At(pid).work + b.Header.Difficulty,
		})
	}
	s.own.Keep(id, b, s.cat.At(id).block)
	s.attached.Add(uint32(id))
	s.added++

	if pid == s.tip() {
		// Plain extension of the main chain.
		s.main, s.tipHash = append(s.main, id), h
		return AddResult{Status: Accepted}
	}
	if !s.better(id) {
		s.sideSeen++
		return AddResult{Status: AcceptedSide}
	}
	reorg := s.switchTip(id)
	s.reorgs++
	if d := reorg.Depth(); d > s.maxReorg {
		s.maxReorg = d
	}
	return AddResult{Status: AcceptedReorg, Reorg: reorg}
}

// better reports whether candidate beats the current tip under the
// fork-choice rule. Ties keep the incumbent (first-seen rule).
func (s *Store) better(candidate BlockID) bool {
	switch s.choice {
	case HeaviestChain:
		return s.cat.At(candidate).work > s.cat.At(s.tip()).work
	default: // LongestChain
		return s.height(candidate) > s.Height()
	}
}

// switchTip reorganizes the main chain onto newTip and reports the switch.
func (s *Store) switchTip(newTip BlockID) *Reorg {
	anc := s.commonAncestor(s.tip(), newTip)

	reorg := &Reorg{}
	for id := s.tip(); id != anc; id = s.cat.At(id).parent {
		reorg.Abandoned = append(reorg.Abandoned, s.hash(id))
		reorg.AbandonedTxs += s.block(id).TxCount()
	}
	// The main column now ends at the new tip; every height above the
	// ancestor is rewritten from the adopted branch.
	top := int(s.height(newTip))
	if top < len(s.main) {
		s.main = s.main[:top+1]
	}
	for len(s.main) <= top {
		s.main = append(s.main, 0)
	}
	for id := newTip; id != anc; id = s.cat.At(id).parent {
		reorg.Adopted = append(reorg.Adopted, s.hash(id))
		s.main[s.height(id)] = id
	}
	// Adopted was collected tip-first; present it ancestor-first.
	for i, j := 0, len(reorg.Adopted)-1; i < j; i, j = i+1, j-1 {
		reorg.Adopted[i], reorg.Adopted[j] = reorg.Adopted[j], reorg.Adopted[i]
	}
	s.tipHash = s.hash(newTip)
	return reorg
}

// commonAncestor finds the deepest block on both branches.
func (s *Store) commonAncestor(a, b BlockID) BlockID {
	for s.height(a) > s.height(b) {
		a = s.cat.At(a).parent
	}
	for s.height(b) > s.height(a) {
		b = s.cat.At(b).parent
	}
	for a != b {
		a, b = s.cat.At(a).parent, s.cat.At(b).parent
	}
	return a
}

// adoptOrphansOf re-submits any blocks that were waiting for h, cascading
// through descendants, and reports every successful adoption in order.
func (s *Store) adoptOrphansOf(h hashx.Hash) []AdoptedOrphan {
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

// OrphanPoolSize returns how many blocks are waiting for missing parents.
func (s *Store) OrphanPoolSize() int { return s.orphans.Len() }

// DefaultOrphanLimit bounds the orphan pool until Orphans().SetLimit
// says otherwise. Honest gossip reorder parks a handful of blocks at a
// time; only a flood of parentless blocks reaches the bound.
const DefaultOrphanLimit = 512

// Orphans exposes the orphan pool: its count and age bounds, eviction
// hook and eviction count. Network layers bound it and hook evictions to
// unmark dedup state and schedule a re-pull.
func (s *Store) Orphans() *backlog.Buffer[hashx.Hash, *Block] { return &s.orphans }

// IsOnMainChain reports whether h is part of the current main chain.
func (s *Store) IsOnMainChain(h hashx.Hash) bool {
	id, ok := s.lookup(h)
	return ok && s.onMain(id)
}

// HashAtHeight returns the main-chain hash at a height.
func (s *Store) HashAtHeight(height uint64) (hashx.Hash, bool) {
	if height >= uint64(len(s.main)) {
		return hashx.Zero, false
	}
	return s.hash(s.main[height]), true
}

// Confirmations returns how many main-chain blocks sit at or above h
// (1 = h is the tip). It returns 0 when h is not on the main chain — the
// block is currently orphaned and unconfirmed (§IV-A).
func (s *Store) Confirmations(h hashx.Hash) int {
	id, ok := s.lookup(h)
	if !ok {
		return 0
	}
	return s.ConfirmationsOf(id)
}

// ConfirmationsOf is Confirmations by catalog id: 0 unless id is on the
// main chain here.
func (s *Store) ConfirmationsOf(id BlockID) int {
	if !s.attached.Has(uint32(id)) || !s.onMain(id) {
		return 0
	}
	return len(s.main) - int(s.height(id))
}

// MainChain returns the main-chain hashes from genesis to tip.
func (s *Store) MainChain() []hashx.Hash {
	out := make([]hashx.Hash, len(s.main))
	for i, id := range s.main {
		out[i] = s.hash(id)
	}
	return out
}

// Stats summarizes the store's history and current main chain.
func (s *Store) Stats() Stats {
	st := Stats{
		BlocksAdded:   s.added,
		SideBlocks:    s.sideSeen,
		Reorgs:        s.reorgs,
		MaxReorgDepth: s.maxReorg,
	}
	s.attached.Each(func(raw uint32) {
		id := BlockID(raw)
		if id == genesisID {
			return
		}
		if s.onMain(id) {
			b := s.block(id)
			st.TxsOnMain += b.TxCount()
			st.BytesOnMain += b.Size()
		} else {
			st.OrphanedTotal++
		}
	})
	return st
}

// NewGenesis builds a conventional genesis block.
func NewGenesis(stateRoot hashx.Hash) *Block {
	return &Block{Header: Header{
		Parent:    hashx.Zero,
		Height:    0,
		StateRoot: stateRoot,
		TxRoot:    hashx.Zero,
	}}
}
