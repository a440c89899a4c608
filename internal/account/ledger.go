package account

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

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
type BlockBody struct {
	Txs      []*Tx
	Receipts []*Receipt
	GasLimit uint64
	GasUsed  uint64
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
	tx := b.TxRoot()
	rc := ReceiptsRoot(b.Receipts)
	var tail [16]byte
	binary.BigEndian.PutUint64(tail[:8], b.GasLimit)
	binary.BigEndian.PutUint64(tail[8:], b.GasUsed)
	return hashx.Concat(tx[:], rc[:], tail[:])
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
// persistent state snapshot per block (so reorgs are O(1) pointer swaps
// and historical roots remain queryable until pruned), and a gas-price
// mempool. The ledgers Replica makes share the genesis block, its frozen
// state trie and the block catalog, and own their store, states map and
// mempool.
type Ledger struct {
	params       Params
	store        *chain.Store
	states       map[hashx.Hash]*trie.Trie // block hash -> post-state
	deltas       map[hashx.Hash]trie.Stats // block hash -> state delta footprint
	pool         *Mempool
	txBlock      map[hashx.Hash]hashx.Hash
	genesis      *chain.Block
	genesisState *trie.Trie // frozen
}

// NewLedger creates a ledger whose genesis state holds the allocation.
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
	root := state.Trie()
	return newReplica(params, genesis, root, root.Measure(), store), nil
}

// Replica returns a new ledger at genesis for another node of l's network,
// whatever l has processed since (see Ledger). The ledgers of one network
// must stay on one goroutine, as their catalog and trie arena do.
func (l *Ledger) Replica() *Ledger {
	return newReplica(l.params, l.genesis, l.genesisState, l.deltas[l.genesis.Hash()], l.store.Replica())
}

// newReplica builds a ledger over a store at genesis, the genesis state
// and its footprint.
func newReplica(params Params, genesis *chain.Block, root *trie.Trie, delta trie.Stats, store *chain.Store) *Ledger {
	l := &Ledger{
		params:       params,
		store:        store,
		states:       map[hashx.Hash]*trie.Trie{genesis.Hash(): root},
		deltas:       map[hashx.Hash]trie.Stats{genesis.Hash(): delta},
		pool:         NewMempool(),
		txBlock:      make(map[hashx.Hash]hashx.Hash),
		genesis:      genesis,
		genesisState: root,
	}
	store.SetValidator(l.validateBlock)
	return l
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

// State returns a mutable copy of the tip state.
func (l *Ledger) State() *State { return StateAt(l.states[l.store.Tip()]).Copy() }

// StateOf returns a copy of the post-state of any known block (nil when
// the block is unknown or its state was pruned).
func (l *Ledger) StateOf(blockHash hashx.Hash) *State {
	t, ok := l.states[blockHash]
	if !ok {
		return nil
	}
	return StateAt(t).Copy()
}

// Balance returns the tip balance of an address.
func (l *Ledger) Balance(addr keys.Address) uint64 {
	return StateAt(l.states[l.store.Tip()]).Balance(addr)
}

// SubmitTx pools a transaction after stationary validation at the tip.
func (l *Ledger) SubmitTx(tx *Tx) error { return l.pool.Add(tx, l.State()) }

// Confirmations reports the §IV-A confirmation depth of a transaction.
func (l *Ledger) Confirmations(txID hashx.Hash) int {
	blockHash, ok := l.txBlock[txID]
	if !ok {
		return 0
	}
	return l.store.Confirmations(blockHash)
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
	parentState, ok := l.states[parent]
	if !ok {
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

// validateBlock re-executes a block against its parent's state and checks
// the declared roots — full validation at acceptance time, side chains
// included (possible here, unlike the UTXO ledger, because persistent
// tries give every branch its own cheap state snapshot).
func (l *Ledger) validateBlock(b, parent *chain.Block) error {
	body, ok := b.Payload.(*BlockBody)
	if !ok {
		return errors.New("account: foreign payload type")
	}
	parentState, ok := l.states[parent.Hash()]
	if !ok {
		return fmt.Errorf("account: no state for parent %s (pruned?)", parent.Hash())
	}
	parentBody := parent.Payload.(*BlockBody)
	wantLimit := l.NextGasLimit(parentBody.GasLimit)
	if body.GasLimit != wantLimit {
		return fmt.Errorf("account: gas limit %d, want %d", body.GasLimit, wantLimit)
	}
	if len(body.Receipts) != len(body.Txs) {
		return errors.New("account: receipt count mismatch")
	}
	state := StateAt(parentState).Copy()
	var gasUsed uint64
	for i, tx := range body.Txs {
		receipt, err := ApplyTx(state, tx, b.Header.Proposer)
		if err != nil {
			return fmt.Errorf("account: tx %d invalid: %w", i, err)
		}
		gasUsed += receipt.GasUsed
		if receipt.GasUsed != body.Receipts[i].GasUsed || receipt.Status != body.Receipts[i].Status {
			return fmt.Errorf("account: receipt %d does not match execution", i)
		}
	}
	if gasUsed != body.GasUsed {
		return fmt.Errorf("account: gas used %d, declared %d", gasUsed, body.GasUsed)
	}
	if gasUsed > body.GasLimit {
		return fmt.Errorf("account: gas used %d exceeds limit %d", gasUsed, body.GasLimit)
	}
	if state.Root() != b.Header.StateRoot {
		return errors.New("account: state root mismatch")
	}
	// Stash the executed state; ProcessBlock links it after Add succeeds.
	l.states[b.Hash()] = state.Trie()
	l.deltas[b.Hash()] = trie.DiffStats(StateAt(parentState).Trie(), state.Trie())
	return nil
}

// ProcessBlock adds a received block. Validation (including execution)
// happens inside the store's validator hook; this method reconciles the
// mempool and the confirmation index with the outcome — for the block
// itself and for every orphan-pool block its insertion cascaded in, so
// out-of-order delivery leaves the index exactly where in-order delivery
// would.
func (l *Ledger) ProcessBlock(b *chain.Block) (chain.AddResult, error) {
	res := l.store.Add(b)
	if res.Status == chain.Rejected {
		// Drop any state the validator stashed for a rejected block.
		delete(l.states, b.Hash())
		delete(l.deltas, b.Hash())
		return res, res.Err
	}
	l.applyAddOutcome(b, res.Status, res.Reorg)
	for _, ad := range res.Adopted {
		l.applyAddOutcome(ad.Block, ad.Status, ad.Reorg)
	}
	return res, nil
}

// applyAddOutcome reconciles the tx index and mempool with one inserted
// block's outcome.
func (l *Ledger) applyAddOutcome(b *chain.Block, status chain.AddStatus, reorg *chain.Reorg) {
	switch status {
	case chain.Accepted:
		l.indexBlock(b)
	case chain.AcceptedReorg:
		state := l.State()
		for _, h := range reorg.Abandoned {
			old, _ := l.store.Get(h)
			body := old.Payload.(*BlockBody)
			for _, tx := range body.Txs {
				delete(l.txBlock, tx.ID())
			}
			l.pool.Reinject(body.Txs, state)
		}
		for _, h := range reorg.Adopted {
			nb, _ := l.store.Get(h)
			l.indexBlock(nb)
		}
	}
}

func (l *Ledger) indexBlock(b *chain.Block) {
	body := b.Payload.(*BlockBody)
	h := b.Hash()
	for _, tx := range body.Txs {
		l.txBlock[tx.ID()] = h
	}
	l.pool.RemoveConfirmed(body.Txs)
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
	return StateAt(l.states[l.store.Tip()]).Trie().Measure()
}

// ArchiveBytes returns the footprint of every retained main-chain state
// with structural sharing counted once — an archive node before pruning.
func (l *Ledger) ArchiveBytes() trie.Stats {
	tries := make([]*trie.Trie, 0, len(l.states))
	for _, h := range l.store.MainChain() {
		if t, ok := l.states[h]; ok {
			tries = append(tries, t)
		}
	}
	return trie.MeasureMany(tries)
}

// DeltaOf returns the state-delta footprint a block introduced.
func (l *Ledger) DeltaOf(blockHash hashx.Hash) (trie.Stats, bool) {
	d, ok := l.deltas[blockHash]
	return d, ok
}

// PruneStatesBelow discards state snapshots for main-chain blocks deeper
// than keepDepth below the tip (side-chain snapshots at those heights are
// dropped too). This is §V-A's delta pruning: "if one is not interested
// in past states, the deltas can be discarded without harming the chain
// integrity". It returns the number of snapshots dropped.
func (l *Ledger) PruneStatesBelow(keepDepth uint64) int {
	tipHeight := l.store.Height()
	if tipHeight <= keepDepth {
		return 0
	}
	cutoff := tipHeight - keepDepth
	dropped := 0
	for h := range l.states {
		b, ok := l.store.Get(h)
		if !ok {
			continue
		}
		if b.Header.Height < cutoff {
			delete(l.states, h)
			dropped++
		}
	}
	return dropped
}
