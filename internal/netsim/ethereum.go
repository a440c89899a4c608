package netsim

import (
	"fmt"
	"time"

	"repro/internal/account"
	"repro/internal/keys"
	"repro/internal/pos"
	"repro/internal/pow"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Consensus selects the Ethereum network's block production mode.
type Consensus int

const (
	// PoW mines blocks with the Nakamoto lottery (§III-A1).
	PoW Consensus = iota + 1
	// PoS produces a block every slot from a stake-weighted proposer and
	// runs Casper-FFG finality votes at epoch boundaries (§III-A2,
	// §IV-A). Per the paper, "the transition to PoS should decrease
	// Ethereum's block generation time to 4 seconds or lower".
	PoS
)

// String returns the consensus name.
func (c Consensus) String() string {
	switch c {
	case PoW:
		return "pow"
	case PoS:
		return "pos"
	default:
		return "unknown"
	}
}

// EthereumConfig parameterizes an Ethereum-like network.
type EthereumConfig struct {
	Net       NetParams
	Ledger    account.Params
	Consensus Consensus
	// HashRates apply in PoW mode (like BitcoinConfig).
	HashRates []float64
	// BlockInterval is the PoW target (default 15 s) or the PoS slot
	// length (default 4 s).
	BlockInterval time.Duration
	// Stakes apply in PoS mode: per-node validator deposits. Empty
	// defaults to equal stake on every node.
	Stakes []uint64
	// EpochLength is the number of slots per FFG epoch (PoS mode).
	EpochLength uint64
	// Accounts and InitialBalance shape the funded user population.
	Accounts       int
	InitialBalance uint64
}

func (c EthereumConfig) withDefaults() EthereumConfig {
	c.Net = c.Net.withDefaults()
	if c.Consensus == 0 {
		c.Consensus = PoW
	}
	if c.BlockInterval <= 0 {
		if c.Consensus == PoS {
			c.BlockInterval = 4 * time.Second
		} else {
			c.BlockInterval = 15 * time.Second
		}
	}
	if c.EpochLength == 0 {
		c.EpochLength = 8
	}
	if c.Accounts <= 0 {
		c.Accounts = 64
	}
	if c.InitialBalance == 0 {
		c.InitialBalance = 1 << 40
	}
	if c.Ledger.InitialGasLimit == 0 {
		c.Ledger = account.DefaultParams()
	}
	if len(c.HashRates) == 0 {
		c.HashRates = make([]float64, c.Net.Nodes)
		for i := range c.HashRates {
			c.HashRates[i] = 1
		}
	}
	if len(c.Stakes) == 0 {
		c.Stakes = make([]uint64, c.Net.Nodes)
		for i := range c.Stakes {
			c.Stakes[i] = 100
		}
	}
	return c
}

// FinalityMetrics reports the FFG gadget's progress (PoS mode).
type FinalityMetrics struct {
	JustifiedCheckpoints int
	FinalizedCheckpoints int
	// FinalityLag is the distribution of block-creation→finalization
	// delays in seconds.
	LastFinalizedEpoch uint64
	MeanFinalityLag    time.Duration
}

// EthereumNet is a running Ethereum-like network simulation. Gossip,
// production and measurement plumbing live in the embedded chainRuntime;
// this type owns the account ledgers, the consensus mode (PoW lottery or
// PoS slots + FFG) and the payment-construction path.
type EthereumNet struct {
	*chainRuntime
	cfg     EthereumConfig
	ledgers []*account.Ledger
	ring    *keys.Ring
	lottery *pow.Lottery // PoW mode

	// PoS state.
	registry   *pos.Registry
	ffg        *pos.FFG
	validators []*keys.KeyPair
	lastJust   pos.Checkpoint
	finality   FinalityMetrics
	lagSamples []time.Duration

	difficulty float64
	nonces     map[int]uint64
}

// NewEthereum builds the network.
func NewEthereum(cfg EthereumConfig) (*EthereumNet, error) {
	cfg = cfg.withDefaults()
	s, net := buildNetwork(cfg.Net)

	ring := keys.NewRing("eth-net", cfg.Accounts)
	alloc := make(map[keys.Address]uint64, cfg.Accounts)
	for i := 0; i < cfg.Accounts; i++ {
		alloc[ring.Addr(i)] = cfg.InitialBalance
	}

	// Genesis is built once; every node after the first is a replica of it
	// (shared genesis block, genesis state and block catalog; own state).
	root, err := account.NewLedger(alloc, cfg.Ledger)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	e := &EthereumNet{
		chainRuntime: newChainRuntime(s, net, cfg.Net.Nodes, root.Store().Index(), func(txs, _ int) int { return txs }),
		cfg:          cfg,
		ring:         ring,
		nonces:       make(map[int]uint64),
	}
	e.metrics.Propagation.SetBudget(cfg.Net.SampleBudget)
	for i := 0; i < cfg.Net.Nodes; i++ {
		ledger := root
		if i > 0 {
			ledger = root.Replica()
		}
		e.ledgers = append(e.ledgers, ledger)
		e.addNode(ledger, cfg.Net)
	}
	net.SetPeers(sim.RandomPeers(s.Rand(), cfg.Net.Nodes, cfg.Net.PeerDegree))

	switch cfg.Consensus {
	case PoW:
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
		e.lottery = lottery
		e.difficulty = lottery.DifficultyForInterval(cfg.BlockInterval)
	case PoS:
		e.registry = pos.NewRegistry()
		for i, stake := range cfg.Stakes {
			if stake == 0 {
				continue
			}
			kp := keys.DeterministicN("eth-validator", i)
			if err := e.registry.Deposit(kp.Pub, stake); err != nil {
				return nil, fmt.Errorf("netsim: deposit: %w", err)
			}
			e.validators = append(e.validators, kp)
		}
		genesisCp := pos.Checkpoint{Hash: e.ledgers[0].Genesis().Hash(), Epoch: 0}
		e.ffg = pos.NewFFG(e.registry, genesisCp)
		e.lastJust = genesisCp
	default:
		return nil, fmt.Errorf("netsim: unknown consensus %d", cfg.Consensus)
	}
	return e, nil
}

// Observer returns the node-0 ledger.
func (e *EthereumNet) Observer() *account.Ledger { return e.ledgers[0] }

// Ring returns the funded identities.
func (e *EthereumNet) Ring() *keys.Ring { return e.ring }

// Registry returns the PoS validator registry (nil in PoW mode).
func (e *EthereumNet) Registry() *pos.Registry { return e.registry }

// FFG returns the finality gadget (nil in PoW mode).
func (e *EthereumNet) FFG() *pos.FFG { return e.ffg }

// produceAt lets a node extend its view and flood the block. An honest
// producer racing an installed selfish miner follows the γ rule first
// (see chainRuntime.raceProduce; a no-op without an adversary).
func (e *EthereumNet) produceAt(nodeIdx int, proposer keys.Address) {
	difficulty := e.difficulty
	if e.cfg.Consensus != PoW {
		difficulty = 1 // PoS blocks carry uniform weight
	}
	e.produceWithRace(nodeIdx, proposer, difficulty)
}

// scheduleMining arms PoW block discovery.
func (e *EthereumNet) scheduleMining() {
	s := e.rt.sim
	interval := e.lottery.SampleInterval(s.Rand(), e.difficulty)
	s.After(interval, func() {
		winner := e.lottery.SampleWinner(s.Rand())
		miner := keys.DeterministicN("eth-miner", winner).Address()
		e.produceAt(winner, miner)
		e.scheduleMining()
	})
}

// schedulePoS arms the slot clock: one proposer per slot, FFG votes every
// epoch boundary.
func (e *EthereumNet) schedulePoS(slot uint64) {
	e.rt.sim.After(e.cfg.BlockInterval, func() {
		seed := e.ffg.LastFinalized().Hash
		proposerAddr, err := e.registry.Proposer(slot, seed)
		if err == nil {
			idx := e.validatorNode(proposerAddr)
			e.produceAt(idx, proposerAddr)
		}
		if slot > 0 && slot%e.cfg.EpochLength == 0 {
			e.runFFGRound(slot)
		}
		e.schedulePoS(slot + 1)
	})
}

// validatorNode maps a validator address to its node index.
func (e *EthereumNet) validatorNode(addr keys.Address) int {
	for i, kp := range e.validators {
		if kp.Address() == addr {
			return i % len(e.ledgers)
		}
	}
	return 0
}

// runFFGRound collects votes from every validator for the checkpoint at
// the current epoch boundary, using the observer's chain.
func (e *EthereumNet) runFFGRound(slot uint64) {
	epoch := slot / e.cfg.EpochLength
	obs := e.ledgers[0]
	cpHeight := slot // one block per slot in the honest schedule
	if cpHeight > obs.Height() {
		cpHeight = obs.Height()
	}
	h, ok := obs.Store().HashAtHeight(cpHeight)
	if !ok {
		return
	}
	target := pos.Checkpoint{Hash: h, Epoch: epoch}
	source := e.lastJust
	for _, kp := range e.validators {
		vote := pos.NewVote(kp, source, target)
		justified, finalized, err := e.ffg.ProcessVote(vote)
		if err != nil {
			continue
		}
		if justified {
			e.finality.JustifiedCheckpoints++
			e.lastJust = target
		}
		if finalized {
			e.finality.FinalizedCheckpoints++
			e.finality.LastFinalizedEpoch = source.Epoch
			// The genesis checkpoint was never minted and takes no sample.
			if created, ok := e.bornAt(e.id(source.Hash)); ok {
				e.lagSamples = append(e.lagSamples, e.rt.sim.Now()-created)
			}
		}
	}
}

// SubmitPayment schedules a plain transfer; nonces are issued centrally
// per sender so the stream stays executable. A nonce is consumed only
// when some node pooled the transaction: burning it on a submission
// every node rejected would leave a gap no later payment can fill.
func (e *EthereumNet) SubmitPayment(p workload.TimedPayment, gasPrice uint64) {
	e.scheduleSubmit(p.At, func() bool {
		to := e.ring.Addr(p.To)
		tx := &account.Tx{
			Nonce:    e.nonces[p.From],
			To:       &to,
			Value:    p.Amount,
			GasLimit: account.GasTxBase,
			GasPrice: gasPrice,
		}
		tx.Sign(e.ring.Pair(p.From))
		accepted := false
		for _, l := range e.ledgers {
			if err := l.SubmitTx(tx); err == nil {
				accepted = true
			}
		}
		if accepted {
			e.nonces[p.From]++
		}
		return accepted
	})
}

// Run drives the simulation and returns chain metrics.
func (e *EthereumNet) Run(duration time.Duration) ChainMetrics {
	switch e.cfg.Consensus {
	case PoW:
		e.scheduleMining()
	case PoS:
		e.schedulePoS(1)
	}
	e.rt.sim.RunUntil(duration)
	return e.collect(duration)
}

// RunWithPayments submits the stream then runs.
func (e *EthereumNet) RunWithPayments(duration time.Duration, payments []workload.TimedPayment, gasPrice uint64) ChainMetrics {
	for _, p := range payments {
		e.SubmitPayment(p, gasPrice)
	}
	return e.Run(duration)
}

// Finality returns the FFG metrics of a PoS run.
func (e *EthereumNet) Finality() FinalityMetrics {
	if len(e.lagSamples) > 0 {
		var sum time.Duration
		for _, l := range e.lagSamples {
			sum += l
		}
		e.finality.MeanFinalityLag = sum / time.Duration(len(e.lagSamples))
	}
	return e.finality
}

// The paradigm-seam registration (paradigm.go): Ethereum is the paper's
// second blockchain, PoW with its native 15-second interval.
func init() {
	registerParadigm(ParadigmSpec{
		Name: "ethereum", Family: "blockchain", Order: 1,
		Build: func(np NetParams, o BuildOptions) (ParadigmNet, error) {
			net, err := NewEthereum(EthereumConfig{
				Net: np, Consensus: PoW, Accounts: o.Accounts,
			})
			if err != nil {
				return nil, err
			}
			return ethereumParadigm{net}, nil
		},
	})
}
