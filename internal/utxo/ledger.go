package utxo

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/chain"
	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/pow"
)

// Params configures a Bitcoin-style ledger. DefaultParams mirrors Bitcoin:
// 1 MB blocks every ~10 minutes (§VI-A), a 50-unit subsidy halving every
// 210,000 blocks, retargeting every 2016 blocks clamped 4×.
type Params struct {
	MaxBlockBytes     int
	InitialSubsidy    uint64
	HalvingInterval   uint64
	TargetInterval    time.Duration
	RetargetWindow    uint64
	MaxRetargetFactor float64
	InitialDifficulty float64
	ForkChoice        chain.ForkChoice
	// GenesisOutputsPerAccount splits each genesis allocation into this
	// many equal outputs (default 1). Simulations raise it so accounts
	// can keep several payments in flight without chaining unconfirmed
	// change.
	GenesisOutputsPerAccount int
}

// DefaultParams returns Bitcoin-shaped parameters.
func DefaultParams() Params {
	return Params{
		MaxBlockBytes:     1_000_000,
		InitialSubsidy:    50_0000_0000, // 50 coins at 10^8 base units
		HalvingInterval:   210_000,
		TargetInterval:    10 * time.Minute,
		RetargetWindow:    2016,
		MaxRetargetFactor: 4,
		InitialDifficulty: 1 << 20,
		ForkChoice:        chain.HeaviestChain,
	}
}

// Ledger is a full Bitcoin-style node state: block store with fork choice,
// the UTXO set at the main-chain tip and a fee-ordered mempool. A reorg
// disconnects a block from its body alone (Set.UndoBlock), so no undo
// journals are kept. Which blocks carry a transaction is content in the
// network's catalog, so the tx index is a query: the carrier on this
// ledger's main chain, if any.
type Ledger struct {
	params  Params
	store   *chain.Store
	set     *Set
	pool    *Mempool
	genesis *chain.Block
}

// NewLedger creates a ledger whose genesis block mints the given
// allocation. All replicas constructed from equal allocations and params
// share the same genesis hash.
func NewLedger(alloc map[keys.Address]uint64, params Params) (*Ledger, error) {
	if params.MaxBlockBytes <= 0 {
		return nil, errors.New("utxo: MaxBlockBytes must be positive")
	}
	genesisTx := &Tx{CoinbaseHeight: 0}
	addrs := make([]keys.Address, 0, len(alloc))
	for a := range alloc {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	split := params.GenesisOutputsPerAccount
	if split < 1 {
		split = 1
	}
	for _, a := range addrs {
		value := alloc[a]
		chunk := value / uint64(split)
		if chunk == 0 {
			genesisTx.Outs = append(genesisTx.Outs, TxOut{Value: value, Owner: a})
			continue
		}
		for i := 0; i < split; i++ {
			v := chunk
			if i == 0 {
				v += value % uint64(split) // remainder rides the first output
			}
			genesisTx.Outs = append(genesisTx.Outs, TxOut{Value: v, Owner: a})
		}
	}
	body := &BlockBody{Txs: []*Tx{genesisTx}}
	genesis := &chain.Block{
		Header: chain.Header{
			Parent: hashx.Zero,
			Height: 0,
			TxRoot: body.Root(),
		},
		Payload: body,
	}
	store, err := chain.NewStore(genesis, params.ForkChoice)
	if err != nil {
		return nil, fmt.Errorf("utxo: %w", err)
	}
	return newReplica(params, genesis, store, newCatalog()), nil
}

// Replica returns a new ledger at genesis for another node of l's network,
// whatever l has processed since: the two share the genesis block, the
// block catalog and the transaction and coin catalog — content every node
// of a network agrees on — while the block store, UTXO set and mempool
// are the replica's own bits over them. The ledgers of one network must
// stay on one goroutine (see internal/catalog).
func (l *Ledger) Replica() *Ledger {
	return newReplica(l.params, l.genesis, l.store.Replica(), l.set.cat)
}

// newReplica builds a ledger at genesis over a store at genesis and the
// given catalog.
func newReplica(params Params, genesis *chain.Block, store *chain.Store, cat *txCatalog) *Ledger {
	genesisTx := genesis.Payload.(*BlockBody).Txs[0]
	set := &Set{cat: cat}
	set.create(genesisTx)
	carrier, _ := store.IDOf(genesis.Hash())
	cat.carriedBy(cat.txs.ID(genesisTx.ID()), carrier)
	return &Ledger{
		params:  params,
		store:   store,
		set:     set,
		pool:    NewMempool(set),
		genesis: genesis,
	}
}

// Store exposes the underlying block store (read-mostly; use ProcessBlock
// to add blocks so the UTXO set stays in sync).
func (l *Ledger) Store() *chain.Store { return l.store }

// Pool exposes the mempool.
func (l *Ledger) Pool() *Mempool { return l.pool }

// PoolLen returns the mempool backlog size — the pending-transaction
// census the throughput experiments report (§VI).
func (l *Ledger) PoolLen() int { return l.pool.Len() }

// UTXOSet exposes the tip UTXO set for read-only queries.
func (l *Ledger) UTXOSet() *Set { return l.set }

// Genesis returns the genesis block.
func (l *Ledger) Genesis() *chain.Block { return l.genesis }

// Params returns the ledger parameters.
func (l *Ledger) Params() Params { return l.params }

// Balance returns the confirmed balance of an address at the tip.
func (l *Ledger) Balance(addr keys.Address) uint64 { return l.set.Balance(addr) }

// Height returns the main-chain height.
func (l *Ledger) Height() uint64 { return l.store.Height() }

// SubmitTx validates a transaction and adds it to the mempool.
func (l *Ledger) SubmitTx(tx *Tx) error { return l.pool.Add(tx) }

// Confirmations returns how deep a transaction is buried on the main
// chain: 1 means "in the tip block", 0 means unconfirmed or orphaned —
// exactly the §IV-A notion merchants count before trusting a payment.
func (l *Ledger) Confirmations(txID hashx.Hash) int {
	cat := l.set.cat
	r := cat.txs.ID(txID)
	if r == 0 {
		return 0
	}
	if n := l.store.ConfirmationsOf(cat.txs.At(r).carrier); n > 0 {
		return n
	}
	for _, block := range cat.carriers[r] {
		if n := l.store.ConfirmationsOf(block); n > 0 {
			return n
		}
	}
	return 0
}

// NextDifficulty computes the difficulty for the next block: unchanged
// within a retarget window, rescaled at window boundaries so the average
// interval converges back to TargetInterval (§VI-A: "the PoW puzzle
// difficulty is dynamic so that the block generation time converges to a
// fixed value").
func (l *Ledger) NextDifficulty() float64 {
	tip := l.store.TipBlock()
	if tip.Header.Height == 0 {
		return l.params.InitialDifficulty
	}
	next := tip.Header.Height + 1
	if l.params.RetargetWindow == 0 || next%l.params.RetargetWindow != 0 {
		return tip.Header.Difficulty
	}
	windowStartHeight := next - l.params.RetargetWindow
	startHash, ok := l.store.HashAtHeight(windowStartHeight)
	if !ok {
		return tip.Header.Difficulty
	}
	start, _ := l.store.Get(startHash)
	actual := tip.Header.Time - start.Header.Time
	expected := time.Duration(l.params.RetargetWindow) * l.params.TargetInterval
	return pow.BitcoinRetarget(tip.Header.Difficulty, actual, expected, l.params.MaxRetargetFactor)
}

// BuildBlock assembles a candidate block on the current tip: mempool
// transactions by fee rate up to the block-size limit (the §VI-A cap on
// throughput), plus the miner's coinbase collecting subsidy and fees. The
// header's Nonce is left zero — the simulation's Poisson mining model
// stands in for hash grinding, and tests that want real PoW call
// pow.MineHeader on the result.
func (l *Ledger) BuildBlock(miner keys.Address, now time.Duration) *chain.Block {
	tip := l.store.TipBlock()
	height := tip.Header.Height + 1
	coinbaseSize := NewCoinbase(height, miner, 0).EncodedSize()
	budget := l.params.MaxBlockBytes - tip.Header.EncodedSize() - coinbaseSize
	txs, fees := l.pool.Assemble(budget)
	subsidy := Subsidy(height, l.params.InitialSubsidy, l.params.HalvingInterval)
	coinbase := NewCoinbase(height, miner, subsidy+fees)
	body := &BlockBody{Txs: append([]*Tx{coinbase}, txs...)}
	return &chain.Block{
		Header: chain.Header{
			Parent:     tip.Hash(),
			Height:     height,
			Time:       now,
			TxRoot:     body.Root(),
			Difficulty: l.NextDifficulty(),
			Proposer:   miner,
		},
		Payload: body,
	}
}

// BuildBlockOn assembles a coinbase-only block extending an arbitrary
// known parent, not necessarily the tip. This is how an honest miner
// races on the selfish miner's published branch (the γ side of the
// Eyal–Sirer 1-1 race): its mempool and UTXO view track its own main
// chain, not the side branch, so the block carries only the subsidy
// coinbase — valid on any parent without re-executing the branch.
func (l *Ledger) BuildBlockOn(parent hashx.Hash, miner keys.Address, now time.Duration) (*chain.Block, error) {
	p, ok := l.store.Get(parent)
	if !ok {
		return nil, fmt.Errorf("utxo: build on %s: %w", parent, chain.ErrUnknownBlock)
	}
	height := p.Header.Height + 1
	coinbase := NewCoinbase(height, miner, Subsidy(height, l.params.InitialSubsidy, l.params.HalvingInterval))
	body := &BlockBody{Txs: []*Tx{coinbase}}
	return &chain.Block{
		Header: chain.Header{
			Parent:     parent,
			Height:     height,
			Time:       now,
			TxRoot:     body.Root(),
			Difficulty: p.Header.Difficulty,
			Proposer:   miner,
		},
		Payload: body,
	}, nil
}

// ProcessBlock adds a received block, keeping the UTXO set, the tx index
// and the mempool consistent through any reorg. Side-chain blocks are
// stored but not executed; their transactions are validated if and when
// their branch becomes the main chain — the same lazy rule Bitcoin uses.
// Orphan-pool blocks the insertion cascades in replay their effects too:
// out-of-order delivery (a post-heal catch-up burst over jittery links)
// must leave the UTXO set exactly where in-order delivery would.
func (l *Ledger) ProcessBlock(b *chain.Block) (chain.AddResult, error) {
	if b.Payload == nil {
		return chain.AddResult{Status: chain.Rejected, Err: errors.New("utxo: block without body")},
			errors.New("utxo: block without body")
	}
	res := l.store.Add(b)
	if err := l.applyAddOutcome(b, res.Status, res.Reorg); err != nil {
		return res, err
	}
	for _, ad := range res.Adopted {
		if err := l.applyAddOutcome(ad.Block, ad.Status, ad.Reorg); err != nil {
			return res, err
		}
	}
	return res, nil
}

// applyAddOutcome applies one inserted block's state effects.
func (l *Ledger) applyAddOutcome(b *chain.Block, status chain.AddStatus, reorg *chain.Reorg) error {
	switch status {
	case chain.Accepted:
		return l.connect(b)
	case chain.AcceptedReorg:
		return l.applyReorg(reorg)
	}
	return nil
}

// connect applies a block's transactions at the tip.
func (l *Ledger) connect(b *chain.Block) error {
	body, ok := b.Payload.(*BlockBody)
	if !ok {
		return errors.New("utxo: foreign payload type")
	}
	subsidy := Subsidy(b.Header.Height, l.params.InitialSubsidy, l.params.HalvingInterval)
	if err := l.set.ApplyBlock(body, subsidy); err != nil {
		return fmt.Errorf("utxo: connect %s: %w", b.Hash(), err)
	}
	carrier, _ := l.store.IDOf(b.Hash())
	cat := l.set.cat
	for _, tx := range body.Txs {
		cat.carriedBy(cat.txs.ID(tx.ID()), carrier)
	}
	l.pool.RemoveConfirmed(body.Txs)
	return nil
}

// disconnect reverses a block at the tip and reinjects its transactions.
func (l *Ledger) disconnect(h hashx.Hash) error {
	b, ok := l.store.Get(h)
	if !ok {
		return fmt.Errorf("utxo: disconnect: %w", chain.ErrUnknownBlock)
	}
	body := b.Payload.(*BlockBody)
	l.set.UndoBlock(body)
	l.pool.Reinject(body.Txs)
	return nil
}

// applyReorg rewinds the abandoned branch and plays the adopted one.
func (l *Ledger) applyReorg(r *chain.Reorg) error {
	for _, h := range r.Abandoned { // already ordered old-tip first
		if err := l.disconnect(h); err != nil {
			return err
		}
	}
	for _, h := range r.Adopted { // ancestor-to-tip order
		b, _ := l.store.Get(h)
		if err := l.connect(b); err != nil {
			return fmt.Errorf("utxo: reorg connect: %w", err)
		}
	}
	return nil
}

// LedgerBytes returns the total modeled size of the main chain — the
// §V "ledger size" a full node stores before pruning.
func (l *Ledger) LedgerBytes() int {
	total := 0
	for _, h := range l.store.MainChain() {
		b, _ := l.store.Get(h)
		total += b.Size()
	}
	return total
}

// NewPayment builds and signs a payment of amount (plus fee) from the key
// pair's confirmed outputs to a recipient, returning change to the sender.
// Output selection is deterministic: largest value first, ties broken by
// outpoint identity.
func NewPayment(set *Set, from *keys.KeyPair, to keys.Address, amount, fee uint64) (*Tx, error) {
	return NewPaymentAvoiding(set, nil, from, to, amount, fee)
}

// NewPaymentAvoiding is NewPayment with wallet-style in-flight tracking:
// outputs for which avoid returns true (typically Mempool.Spends) are not
// selected, so an account can keep several unconfirmed payments in flight
// without double-spending its own pooled transactions.
//
// Inputs are the first coins of the sender's non-avoided outputs in
// catalog.before order, gathered until they cover amount+fee. One coin
// nearly always does (counted per workload in PERFORMANCE.md: at worst
// 99 % of payments), so the head of that order is found by a single
// pass over the owner index — avoid is asked only about a coin that
// would displace the current best — and the full ordering is built only
// when the best coin alone falls short.
func NewPaymentAvoiding(set *Set, avoid func(Outpoint) bool, from *keys.KeyPair, to keys.Address, amount, fee uint64) (*Tx, error) {
	need := amount + fee
	if need < amount {
		return nil, ErrValueOverflow
	}
	owned := set.coinsOf(from.Address())
	cat := set.cat
	coins := cat.coins
	usable := func(id uint32) bool { return avoid == nil || !avoid(coins[id].op) }
	best := -1
	for i, id := range owned {
		if (best < 0 || cat.before(id, owned[best])) && usable(id) {
			best = i
		}
	}
	tx := &Tx{}
	var gathered uint64
	if best >= 0 && coins[owned[best]].Value >= need {
		tx.Ins = []TxIn{{Prev: coins[owned[best]].op}}
		gathered = coins[owned[best]].Value
	} else {
		picks := make([]uint32, 0, len(owned))
		for _, id := range owned {
			if usable(id) {
				picks = append(picks, id)
			}
		}
		sort.Slice(picks, func(i, j int) bool { return cat.before(picks[i], picks[j]) })
		for _, id := range picks {
			tx.Ins = append(tx.Ins, TxIn{Prev: coins[id].op})
			gathered += coins[id].Value
			if gathered >= need {
				break
			}
		}
		if gathered < need {
			return nil, fmt.Errorf("%w: have %d, need %d", ErrInsufficient, gathered, need)
		}
	}
	tx.Outs = append(tx.Outs, TxOut{Value: amount, Owner: to})
	if change := gathered - need; change > 0 {
		tx.Outs = append(tx.Outs, TxOut{Value: change, Owner: from.Address()})
	}
	tx.SignAll(from)
	return tx, nil
}
