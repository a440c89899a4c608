package netsim

import (
	"fmt"
	"time"

	"repro/internal/keys"
	"repro/internal/pow"
	"repro/internal/sim"
	"repro/internal/utxo"
	"repro/internal/workload"
)

// BitcoinConfig parameterizes a Bitcoin-like PoW network.
type BitcoinConfig struct {
	Net NetParams
	// Ledger holds the chain parameters (block size, subsidy, interval).
	Ledger utxo.Params
	// HashRates gives each node's mining power (len ≤ Nodes; zero means
	// the node only relays). Empty defaults to equal power everywhere.
	HashRates []float64
	// BlockInterval is the target mean time between blocks; the lottery
	// difficulty is derived from it, so §VI-A's "block generation time
	// converges to a fixed value" holds by construction.
	BlockInterval time.Duration
	// Accounts is the number of funded user accounts.
	Accounts int
	// InitialBalance funds each account at genesis.
	InitialBalance uint64
}

func (c BitcoinConfig) withDefaults() BitcoinConfig {
	c.Net = c.Net.withDefaults()
	if c.BlockInterval <= 0 {
		c.BlockInterval = 10 * time.Minute
	}
	if c.Accounts <= 0 {
		c.Accounts = 64
	}
	if c.InitialBalance == 0 {
		c.InitialBalance = 1_000_000
	}
	if c.Ledger.MaxBlockBytes == 0 {
		c.Ledger = utxo.DefaultParams()
		// Keep difficulty static during short simulated spans.
		c.Ledger.RetargetWindow = 1 << 30
	}
	if len(c.HashRates) == 0 {
		c.HashRates = make([]float64, c.Net.Nodes)
		for i := range c.HashRates {
			c.HashRates[i] = 1
		}
	}
	return c
}

// BitcoinNet is a running Bitcoin-like network simulation. All gossip,
// production and measurement plumbing lives in the embedded chainRuntime;
// this type owns only what is Bitcoin-specific: the UTXO ledgers, the
// PoW lottery and the payment-construction path.
type BitcoinNet struct {
	*chainRuntime
	cfg     BitcoinConfig
	ledgers []*utxo.Ledger
	ring    *keys.Ring
	lottery *pow.Lottery

	difficulty float64
}

// NewBitcoin builds the network: every node holds an identical genesis
// (same allocation), miners share the PoW lottery, and blocks flood the
// gossip topology.
func NewBitcoin(cfg BitcoinConfig) (*BitcoinNet, error) {
	cfg = cfg.withDefaults()
	s, net := buildNetwork(cfg.Net)

	ring := keys.NewRing("btc-net", cfg.Accounts)
	alloc := make(map[keys.Address]uint64, cfg.Accounts)
	for i := 0; i < cfg.Accounts; i++ {
		alloc[ring.Addr(i)] = cfg.InitialBalance
	}

	miners := make([]pow.Miner, 0, len(cfg.HashRates))
	for i, hr := range cfg.HashRates {
		if hr > 0 {
			miners = append(miners, pow.Miner{ID: i, HashRate: hr})
		}
	}
	lottery, err := pow.NewLottery(miners)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}

	// Genesis is built once; every node after the first is a replica of it
	// (shared genesis block, block catalog and transaction and coin
	// catalog; own state).
	root, err := utxo.NewLedger(alloc, cfg.Ledger)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	b := &BitcoinNet{
		// Main-chain transactions minus one coinbase per block and minus
		// the genesis allocation tx.
		chainRuntime: newChainRuntime(s, net, cfg.Net.Nodes, root.Store().Index(), func(txs, blocks int) int { return txs - blocks - 1 }),
		cfg:          cfg,
		ring:         ring,
		lottery:      lottery,
	}
	b.difficulty = lottery.DifficultyForInterval(cfg.BlockInterval)
	b.metrics.Propagation.SetBudget(cfg.Net.SampleBudget)
	for i := 0; i < cfg.Net.Nodes; i++ {
		ledger := root
		if i > 0 {
			ledger = root.Replica()
		}
		b.ledgers = append(b.ledgers, ledger)
		b.addNode(ledger, cfg.Net)
	}
	net.SetPeers(sim.RandomPeers(s.Rand(), cfg.Net.Nodes, cfg.Net.PeerDegree))
	return b, nil
}

// Observer returns the ledger of the observer node (node 0), whose view
// defines the reported metrics.
func (b *BitcoinNet) Observer() *utxo.Ledger { return b.ledgers[0] }

// Ring returns the funded account identities.
func (b *BitcoinNet) Ring() *keys.Ring { return b.ring }

// scheduleMining arms the next global block-discovery event.
func (b *BitcoinNet) scheduleMining() {
	s := b.rt.sim
	interval := b.lottery.SampleInterval(s.Rand(), b.difficulty)
	s.After(interval, func() {
		winner := b.lottery.SampleWinner(s.Rand())
		miner := keys.DeterministicN("btc-miner", winner).Address()
		// An honest win while a selfish miner's 1-1 race is open mines on
		// the adversary's published block with probability γ (Eyal–Sirer);
		// otherwise — and always with γ = 0 — on the winner's own tip.
		b.produceWithRace(winner, miner, b.difficulty)
		b.scheduleMining()
	})
}

// SubmitPayment schedules a payment: the sender's home node builds the
// transaction from its current view and every node pools it.
func (b *BitcoinNet) SubmitPayment(p workload.TimedPayment, fee uint64) {
	b.scheduleSubmit(p.At, func() bool {
		home := b.ledgers[p.From%len(b.ledgers)]
		tx, err := utxo.NewPaymentAvoiding(
			home.UTXOSet(), home.Pool().Spends,
			b.ring.Pair(p.From), b.ring.Addr(p.To), p.Amount, fee)
		if err != nil {
			return false
		}
		accepted := false
		for _, l := range b.ledgers {
			if err := l.SubmitTx(tx); err == nil {
				accepted = true
			}
		}
		return accepted
	})
}

// Run drives the simulation for the given span and returns the metrics.
func (b *BitcoinNet) Run(duration time.Duration) ChainMetrics {
	b.scheduleMining()
	b.rt.sim.RunUntil(duration)
	return b.collect(duration)
}

// RunWithPayments submits the payment stream before running.
func (b *BitcoinNet) RunWithPayments(duration time.Duration, payments []workload.TimedPayment, fee uint64) ChainMetrics {
	for _, p := range payments {
		b.SubmitPayment(p, fee)
	}
	return b.Run(duration)
}

// The paradigm-seam registration (paradigm.go): Bitcoin is the paper's
// reference PoW blockchain. The seam build keeps a 30-second block
// interval so comparison runs settle inside short simulated spans.
func init() {
	registerParadigm(ParadigmSpec{
		Name: "bitcoin", Family: "blockchain", Order: 0,
		Build: func(np NetParams, o BuildOptions) (ParadigmNet, error) {
			net, err := NewBitcoin(BitcoinConfig{
				Net: np, BlockInterval: 30 * time.Second, Accounts: o.Accounts,
			})
			if err != nil {
				return nil, err
			}
			return bitcoinParadigm{net}, nil
		},
	})
}
