// Package sharding implements the K-way network partitioning of paper
// §VI-A: "Sharding splits the network in K partitions, no longer forcing
// all nodes in the network to process all incoming transactions. Every
// shard k ∈ K, in its simplest form, has its own transaction history and
// the effects of a transition in shard k would affect only the state of
// k. In a more complex scenario, cross shard communication is available."
//
// Each shard keeps its own account state and block log. Cross-shard
// transfers execute in two phases: the source shard debits the sender and
// emits a receipt committed under the shard block's receipt root; the
// destination shard credits the recipient after verifying the receipt's
// Merkle proof. Per-shard load counters quantify the scalability claim —
// "a scalable DLT can be defined as a system where every node does not
// need to process every transaction" (§VII).
package sharding

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/merkle"
)

// Errors.
var (
	ErrBadShardCount = errors.New("sharding: shard count must be positive")
	ErrWrongShard    = errors.New("sharding: account not homed on this shard")
	ErrInsufficient  = errors.New("sharding: insufficient balance")
	ErrBadProof      = errors.New("sharding: receipt proof does not verify")
	ErrReplay        = errors.New("sharding: receipt already applied")
	ErrUnknownBlock  = errors.New("sharding: unknown shard block")
)

// HomeShard deterministically assigns an account to a shard.
func HomeShard(addr keys.Address, k int) int {
	if k <= 0 {
		return 0
	}
	digest := hashx.Sum(addr[:])
	return int(digest.Uint64() % uint64(k))
}

// Receipt is the cross-shard hand-off: proof that the source shard burned
// amount for the destination account ("a transaction from k can trigger
// an event in m").
type Receipt struct {
	SourceShard int
	BlockNumber uint64
	To          keys.Address
	Amount      uint64
	Seq         uint64 // unique per source shard
}

// Encode serializes the receipt as a Merkle leaf.
func (r Receipt) Encode() []byte {
	buf := make([]byte, 0, 8+8+keys.AddressSize+16)
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], uint64(r.SourceShard))
	buf = append(buf, scratch[:]...)
	binary.BigEndian.PutUint64(scratch[:], r.BlockNumber)
	buf = append(buf, scratch[:]...)
	buf = append(buf, r.To[:]...)
	binary.BigEndian.PutUint64(scratch[:], r.Amount)
	buf = append(buf, scratch[:]...)
	binary.BigEndian.PutUint64(scratch[:], r.Seq)
	return append(buf, scratch[:]...)
}

// ShardBlock is one sealed batch of a shard's activity: local transfers
// plus outbound receipts, committed under a receipt root other shards can
// verify proofs against.
type ShardBlock struct {
	Shard       int
	Number      uint64
	LocalTxs    int
	Receipts    []Receipt
	receiptTree *merkle.Tree
}

// ReceiptRoot commits to the outbound receipts.
func (b *ShardBlock) ReceiptRoot() hashx.Hash { return b.receiptTree.Root() }

// ProveReceipt returns the inclusion proof of the i-th receipt.
func (b *ShardBlock) ProveReceipt(i int) (merkle.Proof, error) { return b.receiptTree.Prove(i) }

// Shard holds one partition's state and history.
type Shard struct {
	id       int
	k        int
	balances map[keys.Address]uint64
	pending  struct {
		localTxs int
		receipts []Receipt
	}
	blocks    map[uint64]*ShardBlock
	nextBlock uint64
	nextSeq   uint64
	applied   map[hashx.Hash]bool // inbound receipt leaves already credited
	processed int                 // transactions this shard executed
}

// Network is the K-shard system.
type Network struct {
	shards []*Shard
	// crossTotal counts cross-shard transfers for load accounting.
	crossTotal int
	localTotal int
}

// NewNetwork creates a K-shard network.
func NewNetwork(k int) (*Network, error) {
	if k <= 0 {
		return nil, ErrBadShardCount
	}
	n := &Network{shards: make([]*Shard, k)}
	for i := range n.shards {
		n.shards[i] = &Shard{
			id:       i,
			k:        k,
			balances: make(map[keys.Address]uint64),
			blocks:   make(map[uint64]*ShardBlock),
			applied:  make(map[hashx.Hash]bool),
		}
	}
	return n, nil
}

// K returns the shard count.
func (n *Network) K() int { return len(n.shards) }

// Shard returns the i-th shard.
func (n *Network) Shard(i int) *Shard { return n.shards[i] }

// Fund credits an account on its home shard (genesis allocation).
func (n *Network) Fund(addr keys.Address, amount uint64) {
	s := n.shards[HomeShard(addr, len(n.shards))]
	s.balances[addr] += amount
}

// Balance reads an account's balance from its home shard.
func (n *Network) Balance(addr keys.Address) uint64 {
	s := n.shards[HomeShard(addr, len(n.shards))]
	return s.balances[addr]
}

// Transfer executes a payment. Same-shard payments settle immediately;
// cross-shard payments debit the source, queue a receipt, and settle on
// the destination shard when blocks are sealed and receipts relayed (see
// SealAll).
func (n *Network) Transfer(from, to keys.Address, amount uint64) error {
	k := len(n.shards)
	src := n.shards[HomeShard(from, k)]
	dst := HomeShard(to, k)
	if src.balances[from] < amount {
		return fmt.Errorf("%w: %s has %d, needs %d", ErrInsufficient, from, src.balances[from], amount)
	}
	src.balances[from] -= amount
	src.processed++
	if dst == src.id {
		src.balances[to] += amount
		src.pending.localTxs++
		n.localTotal++
		return nil
	}
	src.pending.receipts = append(src.pending.receipts, Receipt{
		SourceShard: src.id,
		To:          to,
		Amount:      amount,
		Seq:         src.nextSeq,
	})
	src.nextSeq++
	n.crossTotal++
	return nil
}

// Seal closes the shard's current block, committing outbound receipts.
func (s *Shard) Seal() *ShardBlock {
	num := s.nextBlock
	s.nextBlock++
	receipts := s.pending.receipts
	for i := range receipts {
		receipts[i].BlockNumber = num
	}
	leaves := make([][]byte, len(receipts))
	for i, r := range receipts {
		leaves[i] = r.Encode()
	}
	b := &ShardBlock{
		Shard:       s.id,
		Number:      num,
		LocalTxs:    s.pending.localTxs,
		Receipts:    receipts,
		receiptTree: merkle.New(leaves),
	}
	s.blocks[num] = b
	s.pending.localTxs = 0
	s.pending.receipts = nil
	return b
}

// ApplyReceipt credits an inbound transfer after verifying its proof
// against the source shard block's receipt root. Replays are rejected.
func (s *Shard) ApplyReceipt(sourceBlock *ShardBlock, r Receipt, proof merkle.Proof) error {
	if HomeShard(r.To, s.k) != s.id {
		return ErrWrongShard
	}
	if !merkle.VerifyData(sourceBlock.ReceiptRoot(), r.Encode(), proof) {
		return ErrBadProof
	}
	leaf := hashx.Sum(r.Encode())
	if s.applied[leaf] {
		return ErrReplay
	}
	s.applied[leaf] = true
	s.balances[r.To] += r.Amount
	s.processed++ // the destination shard does work too: the 2-phase cost
	return nil
}

// ID returns the shard index.
func (s *Shard) ID() int { return s.id }

// SealAll seals every shard and relays all outbound receipts to their
// destination shards with proofs — one inter-shard synchronization round.
func (n *Network) SealAll() error {
	blocks := make([]*ShardBlock, len(n.shards))
	for i, s := range n.shards {
		blocks[i] = s.Seal()
	}
	for _, b := range blocks {
		for i, r := range b.Receipts {
			proof, err := b.ProveReceipt(i)
			if err != nil {
				return err
			}
			dst := n.shards[HomeShard(r.To, len(n.shards))]
			if err := dst.ApplyReceipt(b, r, proof); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadStats quantifies the scalability claim.
type LoadStats struct {
	K          int
	LocalTxs   int
	CrossTxs   int
	TotalWork  int     // executions summed over shards
	MaxShard   int     // busiest shard's executions
	PerTxWork  float64 // executions per logical transfer (1 local, 2 cross)
	LoadFactor float64 // busiest shard work / total logical transfers —
	// the fraction of the network's transactions one node must process
}

// Load returns the current load statistics.
func (n *Network) Load() LoadStats {
	st := LoadStats{K: len(n.shards), LocalTxs: n.localTotal, CrossTxs: n.crossTotal}
	for _, s := range n.shards {
		st.TotalWork += s.processed
		if s.processed > st.MaxShard {
			st.MaxShard = s.processed
		}
	}
	logical := n.localTotal + n.crossTotal
	if logical > 0 {
		st.PerTxWork = float64(st.TotalWork) / float64(logical)
		st.LoadFactor = float64(st.MaxShard) / float64(logical)
	}
	return st
}

// CapacityTPS returns the analytic network throughput when every shard
// node can execute nodeTPS transactions per second and a crossFraction of
// traffic pays the 2× two-phase cost: K·nodeTPS / (1 + crossFraction).
// With K=1 it degenerates to the unsharded rate, showing the linear
// scaling — and its erosion as cross-shard traffic grows.
func CapacityTPS(k int, nodeTPS, crossFraction float64) float64 {
	if k <= 0 || nodeTPS <= 0 {
		return 0
	}
	if crossFraction < 0 {
		crossFraction = 0
	}
	if crossFraction > 1 {
		crossFraction = 1
	}
	return float64(k) * nodeTPS / (1 + crossFraction)
}
