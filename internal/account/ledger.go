package account

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/bitset"
	"repro/internal/chain"
	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/merkle"
	"repro/internal/pow"
	"repro/internal/trie"
)

// BlockBody is an Ethereum-style block body: transactions, their receipts,
// and the gas accounting that bounds the block ("a measure called gas
// limit defines the maximum amount of gas all transactions in the whole
// block combined are allowed to consume", §VI-A).
//
// A body is immutable after its first Root, which is memoized under the
// self-pointer rule of utxo.BlockBody: the proposer computes the root
// and every store the block reaches reads it, while a value copy
// re-derives its own.
type BlockBody struct {
	Txs      []*Tx
	Receipts []*Receipt
	GasLimit uint64
	GasUsed  uint64

	memoSelf *BlockBody
	memoRoot hashx.Hash
}

var _ chain.Payload = (*BlockBody)(nil)

// TxRoot returns the Merkle root over transaction IDs.
func (b *BlockBody) TxRoot() hashx.Hash {
	ids := make([]hashx.Hash, len(b.Txs))
	for i, tx := range b.Txs {
		ids[i] = tx.ID()
	}
	return merkle.RootOfHashes(ids)
}

// Root commits to transactions, receipts and gas accounting, mirroring
// Ethereum's three commitments (§II-A: "three different structures to
// store transactions, receipts and state"; state is in the header).
func (b *BlockBody) Root() hashx.Hash {
	if b.memoSelf != b {
		tx := b.TxRoot()
		rc := ReceiptsRoot(b.Receipts)
		var tail [16]byte
		binary.BigEndian.PutUint64(tail[:8], b.GasLimit)
		binary.BigEndian.PutUint64(tail[8:], b.GasUsed)
		b.memoRoot = hashx.Concat(tx[:], rc[:], tail[:])
		b.memoSelf = b
	}
	return b.memoRoot
}

// Size returns the modeled wire size of transactions plus receipts.
func (b *BlockBody) Size() int {
	sz := 16
	for _, tx := range b.Txs {
		sz += tx.EncodedSize()
	}
	for _, r := range b.Receipts {
		sz += r.receiptWireSize()
	}
	return sz
}

// TxCount returns the number of transactions.
func (b *BlockBody) TxCount() int { return len(b.Txs) }

// Params configures an Ethereum-style ledger. Defaults follow the paper's
// description of Ethereum circa 2018: ~15 s blocks, a dynamic gas limit,
// per-block difficulty adjustment.
type Params struct {
	InitialGasLimit uint64
	TargetGasLimit  uint64
	// GasLimitQuotient bounds per-block gas-limit drift (parent/1024).
	GasLimitQuotient  uint64
	TargetInterval    time.Duration
	InitialDifficulty float64
	ForkChoice        chain.ForkChoice
}

// DefaultParams returns Ethereum-shaped parameters.
func DefaultParams() Params {
	return Params{
		InitialGasLimit:   8_000_000,
		TargetGasLimit:    8_000_000,
		GasLimitQuotient:  1024,
		TargetInterval:    15 * time.Second,
		InitialDifficulty: 1 << 22,
		ForkChoice:        chain.HeaviestChain,
	}
}

// Mempool orders pending account-model transactions by gas price, the fee
// market §VI-A describes. One transaction per (sender, nonce) is kept; a
// higher-gas-price replacement evicts the old one.
type Mempool struct {
	byID    map[hashx.Hash]*Tx
	byNonce map[keys.Address]map[uint64]*Tx
}

// NewMempool returns an empty pool.
func NewMempool() *Mempool {
	return &Mempool{
		byID:    make(map[hashx.Hash]*Tx),
		byNonce: make(map[keys.Address]map[uint64]*Tx),
	}
}

// Len returns the number of pooled transactions.
func (m *Mempool) Len() int { return len(m.byID) }

// Bytes returns the modeled total size of the pool.
func (m *Mempool) Bytes() int {
	n := 0
	for _, tx := range m.byID {
		n += tx.EncodedSize()
	}
	return n
}

// Contains reports whether a transaction is pooled.
func (m *Mempool) Contains(id hashx.Hash) bool {
	_, ok := m.byID[id]
	return ok
}

// Add validates a transaction's signature and stationary properties
// against state (nonce not in the past, funds cover the worst case) and
// pools it.
func (m *Mempool) Add(tx *Tx, state *State) error {
	if !tx.VerifySig() {
		return ErrBadSig
	}
	acct := state.GetAccount(tx.From)
	if tx.Nonce < acct.Nonce {
		return fmt.Errorf("%w: tx nonce %d already used (account at %d)", ErrBadNonce, tx.Nonce, acct.Nonce)
	}
	if tx.GasLimit < tx.IntrinsicGas() {
		return ErrGasTooLow
	}
	need := tx.Value + tx.GasLimit*tx.GasPrice
	if acct.Balance < need {
		return fmt.Errorf("%w: balance %d < %d", ErrInsufficient, acct.Balance, need)
	}
	slot, ok := m.byNonce[tx.From]
	if !ok {
		slot = make(map[uint64]*Tx)
		m.byNonce[tx.From] = slot
	}
	if old, exists := slot[tx.Nonce]; exists {
		if old.GasPrice >= tx.GasPrice {
			return fmt.Errorf("account: replacement for nonce %d does not raise gas price", tx.Nonce)
		}
		delete(m.byID, old.ID())
	}
	slot[tx.Nonce] = tx
	m.byID[tx.ID()] = tx
	return nil
}

// remove unlinks one transaction.
func (m *Mempool) remove(tx *Tx) {
	delete(m.byID, tx.ID())
	if slot, ok := m.byNonce[tx.From]; ok {
		if cur, ok2 := slot[tx.Nonce]; ok2 && cur.ID() == tx.ID() {
			delete(slot, tx.Nonce)
		}
		if len(slot) == 0 {
			delete(m.byNonce, tx.From)
		}
	}
}

// RemoveConfirmed drops mined transactions and any pooled transaction
// whose nonce they consumed.
func (m *Mempool) RemoveConfirmed(txs []*Tx) {
	for _, tx := range txs {
		m.remove(tx)
		if slot, ok := m.byNonce[tx.From]; ok {
			if rival, clash := slot[tx.Nonce]; clash {
				m.remove(rival)
			}
		}
	}
}

// Reinject pools orphaned transactions back, ignoring ones that no longer
// validate; it returns the number actually restored.
func (m *Mempool) Reinject(txs []*Tx, state *State) int {
	n := 0
	for _, tx := range txs {
		if err := m.Add(tx, state); err == nil {
			n++
		}
	}
	return n
}

// Candidates returns pooled transactions ordered for block inclusion:
// per-sender nonce runs starting at the state nonce, interleaved by gas
// price (highest first).
func (m *Mempool) Candidates(state *State) []*Tx {
	type run struct {
		txs []*Tx
	}
	runs := make([]run, 0, len(m.byNonce))
	for sender, slot := range m.byNonce {
		nonce := state.Nonce(sender)
		var r run
		for {
			tx, ok := slot[nonce]
			if !ok {
				break
			}
			r.txs = append(r.txs, tx)
			nonce++
		}
		if len(r.txs) > 0 {
			runs = append(runs, r)
		}
	}
	// Deterministic order: by head gas price desc, then sender address.
	sort.Slice(runs, func(i, j int) bool {
		a, b := runs[i].txs[0], runs[j].txs[0]
		if a.GasPrice != b.GasPrice {
			return a.GasPrice > b.GasPrice
		}
		return a.From.Less(b.From)
	})
	var out []*Tx
	for _, r := range runs {
		out = append(out, r.txs...)
	}
	return out
}

// Ledger is a full Ethereum-style node: block store with fork choice, a
// persistent post-state per retained block (so reorgs are O(1) pointer
// swaps and historical roots remain queryable until pruned), and a
// gas-price mempool.
//
// What a block does is content of its network (see internal/catalog):
// its post-state and state delta are functions of the block and its
// parent's post-state, and the blocks that carry a transaction are
// functions of the blocks. So the ledgers Replica makes share the genesis
// block, the block catalog and one execution table, and the first of them
// to validate a block executes it there for all. A ledger owns its store,
// its mempool and one bit per block id: whether it retains that block's
// post-state, which every state query and its own validation of a child
// check first.
type Ledger struct {
	params       Params
	store        *chain.Store
	exec         *execTable
	retained     bitset.Set // block ids whose post-state this ledger keeps
	pool         *Mempool
	genesis      *chain.Block
	genesisState *trie.Trie // frozen
}

// execTable is one network's execution results, held once for all its
// ledgers (see Ledger).
type execTable struct {
	blocks []execEntry // catalog block id -> entry
	// carrier is the first block whose execution carried a transaction;
	// carriers holds any further ones, nil until one transaction is
	// carried by two blocks — a fork.
	carrier  map[hashx.Hash]chain.BlockID
	carriers map[hashx.Hash][]chain.BlockID
}

// execEntry is one block's successful execution. A rejection is never
// entered, so a forged block is executed again wherever it arrives.
type execEntry struct {
	post   *trie.Trie // frozen; nil until executed and once no ledger retains it
	delta  trie.Stats // the footprint of the nodes post adds to the parent's state
	height uint32
	refs   uint32 // ledgers retaining post
}

// at returns id's entry, growing the table to reach it. The pointer is
// valid until the next at.
func (x *execTable) at(id chain.BlockID) *execEntry {
	for int(id) >= len(x.blocks) {
		x.blocks = append(x.blocks, execEntry{})
	}
	return &x.blocks[id]
}

// carriedBy records that block carries the transaction txID.
func (x *execTable) carriedBy(txID hashx.Hash, block chain.BlockID) {
	first, ok := x.carrier[txID]
	switch {
	case !ok:
		x.carrier[txID] = block
	case first != block && !slices.Contains(x.carriers[txID], block):
		if x.carriers == nil {
			x.carriers = make(map[hashx.Hash][]chain.BlockID)
		}
		x.carriers[txID] = append(x.carriers[txID], block)
	}
}

// NewLedger creates a ledger whose genesis state holds the allocation,
// with an execution table of its own.
func NewLedger(alloc map[keys.Address]uint64, params Params) (*Ledger, error) {
	if params.InitialGasLimit == 0 {
		return nil, errors.New("account: InitialGasLimit must be positive")
	}
	state := NewState()
	addrs := make([]keys.Address, 0, len(alloc))
	for a := range alloc {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	for _, a := range addrs {
		state.SetAccount(a, Account{Balance: alloc[a]})
	}
	body := &BlockBody{GasLimit: params.InitialGasLimit}
	genesis := &chain.Block{
		Header: chain.Header{
			Parent:    hashx.Zero,
			Height:    0,
			TxRoot:    body.Root(),
			StateRoot: state.Root(),
		},
		Payload: body,
	}
	store, err := chain.NewStore(genesis, params.ForkChoice)
	if err != nil {
		return nil, fmt.Errorf("account: %w", err)
	}
	exec := &execTable{carrier: make(map[hashx.Hash]chain.BlockID)}
	return newReplica(params, genesis, state.Trie(), store, exec), nil
}

// Replica returns a new ledger at genesis for another node of l's network,
// whatever l has processed since (see Ledger). The ledgers of one network
// must stay on one goroutine, as their catalog, execution table and trie
// arena do.
func (l *Ledger) Replica() *Ledger {
	return newReplica(l.params, l.genesis, l.genesisState, l.store.Replica(), l.exec)
}

// newReplica builds a ledger over a store at genesis, the frozen genesis
// state and the network's execution table, retaining the genesis state.
func newReplica(params Params, genesis *chain.Block, root *trie.Trie, store *chain.Store, exec *execTable) *Ledger {
	l := &Ledger{
		params:       params,
		store:        store,
		exec:         exec,
		pool:         NewMempool(),
		genesis:      genesis,
		genesisState: root,
	}
	id, _ := store.IDOf(genesis.Hash())
	if e := exec.at(id); e.post == nil {
		*e = execEntry{post: root, delta: root.Measure()}
	}
	l.retain(id)
	store.SetValidator(l.validateBlock)
	return l
}

// retain marks id's filled entry as kept by this ledger.
func (l *Ledger) retain(id chain.BlockID) {
	l.retained.Add(uint32(id))
	l.exec.blocks[id].refs++
}

// retainedEntry returns the entry of the block with hash h if this ledger
// retains its post-state.
func (l *Ledger) retainedEntry(h hashx.Hash) (*execEntry, bool) {
	id, ok := l.store.IDOf(h)
	if !ok || !l.retained.Has(uint32(id)) {
		return nil, false
	}
	return &l.exec.blocks[id], true
}

// postState returns the post-state this ledger retains for the block
// with hash h, nil if none.
func (l *Ledger) postState(h hashx.Hash) *trie.Trie {
	if e, ok := l.retainedEntry(h); ok {
		return e.post
	}
	return nil
}

// Store exposes the underlying block store.
func (l *Ledger) Store() *chain.Store { return l.store }

// Pool exposes the mempool.
func (l *Ledger) Pool() *Mempool { return l.pool }

// PoolLen returns the mempool backlog size — the pending-transaction
// census the throughput experiments report (§VI).
func (l *Ledger) PoolLen() int { return l.pool.Len() }

// Genesis returns the genesis block.
func (l *Ledger) Genesis() *chain.Block { return l.genesis }

// Params returns the ledger parameters.
func (l *Ledger) Params() Params { return l.params }

// Height returns the main-chain height.
func (l *Ledger) Height() uint64 { return l.store.Height() }

// State returns a mutable copy of the tip state: a State over a frozen
// post-state thaws a trie of its own at its first write.
func (l *Ledger) State() *State { return StateAt(l.postState(l.store.Tip())) }

// StateOf returns a copy of the post-state of any known block (nil when
// the block is unknown or its state was pruned).
func (l *Ledger) StateOf(blockHash hashx.Hash) *State {
	t := l.postState(blockHash)
	if t == nil {
		return nil
	}
	return StateAt(t).Copy()
}

// Balance returns the tip balance of an address.
func (l *Ledger) Balance(addr keys.Address) uint64 {
	return StateAt(l.postState(l.store.Tip())).Balance(addr)
}

// SubmitTx pools a transaction after stationary validation at the tip.
// The tip state is read in place, so the State over it stays on the
// stack.
func (l *Ledger) SubmitTx(tx *Tx) error {
	return l.pool.Add(tx, StateAt(l.postState(l.store.Tip())))
}

// Confirmations reports the §IV-A confirmation depth of a transaction:
// that of whichever of its carriers is on this ledger's main chain, 0
// when none is.
func (l *Ledger) Confirmations(txID hashx.Hash) int {
	first, ok := l.exec.carrier[txID]
	if !ok {
		return 0
	}
	if n := l.store.ConfirmationsOf(first); n > 0 {
		return n
	}
	for _, block := range l.exec.carriers[txID] {
		if n := l.store.ConfirmationsOf(block); n > 0 {
			return n
		}
	}
	return 0
}

// NextGasLimit drifts the block gas limit toward the target by at most
// parent/quotient per block — the "dynamic [block size that] will adapt
// to network conditions" of §VI-A.
func (l *Ledger) NextGasLimit(parent uint64) uint64 {
	q := l.params.GasLimitQuotient
	if q == 0 {
		q = 1024
	}
	step := parent / q
	if step == 0 {
		step = 1
	}
	switch {
	case parent < l.params.TargetGasLimit:
		next := parent + step
		if next > l.params.TargetGasLimit {
			next = l.params.TargetGasLimit
		}
		return next
	case parent > l.params.TargetGasLimit:
		next := parent - step
		if next < l.params.TargetGasLimit {
			next = l.params.TargetGasLimit
		}
		return next
	default:
		return parent
	}
}

// BuildBlock assembles and executes a candidate block on the tip: mempool
// candidates by gas price, packed until the block gas limit is reached.
func (l *Ledger) BuildBlock(proposer keys.Address, now time.Duration) *chain.Block {
	tip := l.store.TipBlock()
	parentBody := tip.Payload.(*BlockBody)
	gasLimit := l.NextGasLimit(parentBody.GasLimit)
	state := l.State()
	body := &BlockBody{GasLimit: gasLimit}
	for _, tx := range l.pool.Candidates(state) {
		if body.GasUsed+tx.GasLimit > gasLimit {
			continue
		}
		receipt, err := ApplyTx(state, tx, proposer)
		if err != nil {
			continue // stale entry; stays pooled until eviction
		}
		body.Txs = append(body.Txs, tx)
		body.Receipts = append(body.Receipts, receipt)
		body.GasUsed += receipt.GasUsed
	}
	diff := pow.EthereumAdjust(tip.Header.Difficulty, now-tip.Header.Time)
	if tip.Header.Height == 0 {
		diff = l.params.InitialDifficulty
	}
	return &chain.Block{
		Header: chain.Header{
			Parent:     tip.Hash(),
			Height:     tip.Header.Height + 1,
			Time:       now,
			TxRoot:     body.Root(),
			StateRoot:  state.Root(),
			Difficulty: diff,
			Proposer:   proposer,
		},
		Payload: body,
	}
}

// BuildBlockOn assembles an empty block extending an arbitrary known
// parent, not necessarily the tip — the honest miner that races on a
// selfish miner's published branch (the γ side of the Eyal–Sirer 1-1
// race) builds here. With no transactions the post-state equals the
// parent state, so the block validates on any branch whose state is
// still retained.
func (l *Ledger) BuildBlockOn(parent hashx.Hash, proposer keys.Address, now time.Duration) (*chain.Block, error) {
	p, ok := l.store.Get(parent)
	if !ok {
		return nil, fmt.Errorf("account: build on %s: %w", parent, chain.ErrUnknownBlock)
	}
	parentState := l.postState(parent)
	if parentState == nil {
		return nil, fmt.Errorf("account: no state for parent %s (pruned?)", parent)
	}
	body := &BlockBody{GasLimit: l.NextGasLimit(p.Payload.(*BlockBody).GasLimit)}
	diff := pow.EthereumAdjust(p.Header.Difficulty, now-p.Header.Time)
	if p.Header.Height == 0 {
		diff = l.params.InitialDifficulty
	}
	return &chain.Block{
		Header: chain.Header{
			Parent:     parent,
			Height:     p.Header.Height + 1,
			Time:       now,
			TxRoot:     body.Root(),
			StateRoot:  StateAt(parentState).Root(),
			Difficulty: diff,
			Proposer:   proposer,
		},
		Payload: body,
	}, nil
}

// validateBlock accepts a block whose parent's post-state this ledger
// retains and whose execution on it matches every declared commitment —
// full validation at acceptance time, side chains included (possible
// here, unlike the UTXO ledger, because persistent tries give every
// branch its own cheap state snapshot). The store has checked the body
// against the header's TxRoot, so the block's hash names its whole
// content: the first ledger of the network to accept it executes it into
// the execution table, and the others read the entry.
func (l *Ledger) validateBlock(b, parent *chain.Block) error {
	body, ok := b.Payload.(*BlockBody)
	if !ok {
		return errors.New("account: foreign payload type")
	}
	parentState := l.postState(parent.Hash())
	if parentState == nil {
		return fmt.Errorf("account: no state for parent %s (pruned?)", parent.Hash())
	}
	// The id the network's catalog hands b, which b's attach keeps.
	id := chain.BlockID(b.IDIn(l.store.Index()))
	if e := l.exec.at(id); e.post == nil {
		post, err := l.execute(b, body, parent, parentState)
		if err != nil {
			return err
		}
		*e = execEntry{
			post:   post,
			delta:  trie.DiffStats(parentState, post),
			height: uint32(b.Header.Height),
		}
		for _, tx := range body.Txs {
			l.exec.carriedBy(tx.ID(), id)
		}
	}
	l.retain(id)
	return nil
}

// execute runs a block's transactions on its parent's post-state and
// checks the declared gas accounting, receipts and state root, returning
// the frozen post-state.
func (l *Ledger) execute(b *chain.Block, body *BlockBody, parent *chain.Block, parentState *trie.Trie) (*trie.Trie, error) {
	parentBody := parent.Payload.(*BlockBody)
	wantLimit := l.NextGasLimit(parentBody.GasLimit)
	if body.GasLimit != wantLimit {
		return nil, fmt.Errorf("account: gas limit %d, want %d", body.GasLimit, wantLimit)
	}
	if len(body.Receipts) != len(body.Txs) {
		return nil, errors.New("account: receipt count mismatch")
	}
	state := StateAt(parentState).Copy()
	var gasUsed uint64
	for i, tx := range body.Txs {
		receipt, err := ApplyTx(state, tx, b.Header.Proposer)
		if err != nil {
			return nil, fmt.Errorf("account: tx %d invalid: %w", i, err)
		}
		gasUsed += receipt.GasUsed
		if receipt.GasUsed != body.Receipts[i].GasUsed || receipt.Status != body.Receipts[i].Status {
			return nil, fmt.Errorf("account: receipt %d does not match execution", i)
		}
	}
	if gasUsed != body.GasUsed {
		return nil, fmt.Errorf("account: gas used %d, declared %d", gasUsed, body.GasUsed)
	}
	if gasUsed > body.GasLimit {
		return nil, fmt.Errorf("account: gas used %d exceeds limit %d", gasUsed, body.GasLimit)
	}
	if state.Root() != b.Header.StateRoot {
		return nil, errors.New("account: state root mismatch")
	}
	return state.Trie(), nil
}

// ProcessBlock adds a received block. Validation (including execution)
// happens inside the store's validator hook; this method reconciles the
// mempool with the outcome — for the block itself and for every
// orphan-pool block its insertion cascaded in, so out-of-order delivery
// leaves the pool exactly where in-order delivery would.
func (l *Ledger) ProcessBlock(b *chain.Block) (chain.AddResult, error) {
	res := l.store.Add(b)
	if res.Status == chain.Rejected {
		return res, res.Err
	}
	l.applyAddOutcome(b, res.Status, res.Reorg)
	for _, ad := range res.Adopted {
		l.applyAddOutcome(ad.Block, ad.Status, ad.Reorg)
	}
	return res, nil
}

// applyAddOutcome reconciles the mempool with one inserted block's
// outcome.
func (l *Ledger) applyAddOutcome(b *chain.Block, status chain.AddStatus, reorg *chain.Reorg) {
	switch status {
	case chain.Accepted:
		l.pool.RemoveConfirmed(b.Payload.(*BlockBody).Txs)
	case chain.AcceptedReorg:
		state := l.State()
		for _, h := range reorg.Abandoned {
			old, _ := l.store.Get(h)
			l.pool.Reinject(old.Payload.(*BlockBody).Txs, state)
		}
		for _, h := range reorg.Adopted {
			nb, _ := l.store.Get(h)
			l.pool.RemoveConfirmed(nb.Payload.(*BlockBody).Txs)
		}
	}
}

// LedgerBytes returns the modeled size of all main-chain blocks (headers,
// transactions and receipts) — the raw chain data of §V-A.
func (l *Ledger) LedgerBytes() int {
	total := 0
	for _, h := range l.store.MainChain() {
		b, _ := l.store.Get(h)
		total += b.Size()
	}
	return total
}

// StateBytes returns the footprint of the tip state alone — what a
// fast-synced node stores (§V-A).
func (l *Ledger) StateBytes() trie.Stats {
	return l.postState(l.store.Tip()).Measure()
}

// ArchiveBytes returns the footprint of every retained main-chain state
// with structural sharing counted once — an archive node before pruning.
func (l *Ledger) ArchiveBytes() trie.Stats {
	var tries []*trie.Trie
	for _, h := range l.store.MainChain() {
		if t := l.postState(h); t != nil {
			tries = append(tries, t)
		}
	}
	return trie.MeasureMany(tries)
}

// DeltaOf returns the state-delta footprint a block introduced, while
// this ledger retains the block's post-state.
func (l *Ledger) DeltaOf(blockHash hashx.Hash) (trie.Stats, bool) {
	if e, ok := l.retainedEntry(blockHash); ok {
		return e.delta, true
	}
	return trie.Stats{}, false
}

// PruneStatesBelow discards the post-states and deltas this ledger keeps
// for blocks more than keepDepth below the tip, side chains included.
// This is §V-A's delta pruning: "if one is not interested in past
// states, the deltas can be discarded without harming the chain
// integrity". A state no ledger of the network retains any more leaves
// the execution table; a ledger that later needs it executes its block
// again. It returns the number of snapshots dropped.
func (l *Ledger) PruneStatesBelow(keepDepth uint64) int {
	tipHeight := l.store.Height()
	if tipHeight <= keepDepth {
		return 0
	}
	cutoff := tipHeight - keepDepth
	var drop []uint32
	l.retained.Each(func(id uint32) {
		if uint64(l.exec.blocks[id].height) < cutoff {
			drop = append(drop, id)
		}
	})
	for _, id := range drop {
		l.retained.Remove(id)
		e := &l.exec.blocks[id]
		if e.refs--; e.refs == 0 {
			e.post = nil
		}
	}
	return len(drop)
}
