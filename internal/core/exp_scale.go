package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/account"
	"repro/internal/channels"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/plasma"
	"repro/internal/sharding"
	"repro/internal/utxo"
	"repro/internal/workload"
)

// e9SysResult is one E9 sweep point: its rendered row and the value the
// cross-system shape check compares (TPS, or BPS for Nano).
type e9SysResult struct {
	row []string
	tps float64
}

// e9BitcoinDur and e9NanoDur are the simulated spans of the E9 bitcoin
// and nano networks — E14 schedules its fault windows relative to them.
func e9BitcoinDur(cfg Config) time.Duration { return cfg.dur(12 * time.Minute) }
func e9NanoDur(cfg Config) time.Duration    { return cfg.dur(40 * time.Second) }

// e9Bitcoin runs the E9 bitcoin network — the paper's 1 MB/10 min system
// under a saturating workload — optionally under a fault schedule. With
// faults == nil the run is byte-identical to the historical E9 row; E14's
// baseline rows and its partition/churn scenarios all reuse it. The
// second return reports whether every node's tip converged by the end.
func e9Bitcoin(cfg Config, faults *netsim.FaultSchedule) (netsim.ChainMetrics, bool, error) {
	btcParams := utxo.DefaultParams()
	btcParams.MaxBlockBytes = 19_000
	btcParams.RetargetWindow = 1 << 30
	btcParams.GenesisOutputsPerAccount = 64
	btc, err := netsim.NewBitcoin(netsim.BitcoinConfig{
		Net:    netParams(8, 3, cfg.Seed, 50*time.Millisecond, 500*time.Millisecond),
		Ledger: btcParams, BlockInterval: 30 * time.Second,
		Accounts: 128, InitialBalance: 1 << 32,
	})
	if err != nil {
		return netsim.ChainMetrics{}, false, err
	}
	if faults != nil {
		faults.ApplyToBitcoin(btc)
	}
	dur := e9BitcoinDur(cfg)
	load := workload.Payments(rand.New(rand.NewSource(cfg.Seed)), workload.Config{
		Accounts: 128, Rate: 30, Duration: dur, MaxAmount: 50,
	})
	m := btc.RunWithPayments(dur, load, 10)
	// Tip equality with a two-block tolerance: blocks still propagating
	// at the cutoff instant are not divergence.
	return m, btc.ConvergedWithin(2), nil
}

// e9Nano runs the E9 Nano network — consumer-hardware budget, optional
// gossip batching — optionally under a fault schedule. With faults == nil
// the run is byte-identical to the historical E9 row. When assess is set
// the second return reports whether every replica's lattice converged
// once the network quiesced (E14's recovery verdict); E9's own sweep
// rows pass false and skip the post-cutoff drain entirely.
func e9Nano(cfg Config, batch int, window time.Duration, faults *netsim.FaultSchedule, assess bool) (netsim.NanoMetrics, bool, error) {
	nanoDur := e9NanoDur(cfg)
	nano, err := netsim.NewNano(netsim.NanoConfig{
		Net:      netParams(8, 3, cfg.Seed+3, 10*time.Millisecond, 80*time.Millisecond),
		Accounts: 64, Reps: 4,
		BatchSize: batch, BatchWindow: window,
		ProcPerBlock: 4 * time.Millisecond, // consumer-grade validation
		ProcPerVote:  500 * time.Microsecond,
	})
	if err != nil {
		return netsim.NanoMetrics{}, false, err
	}
	if faults != nil {
		faults.ApplyToNano(nano)
	}
	load := workload.Payments(rand.New(rand.NewSource(cfg.Seed+103)), workload.Config{
		Accounts: 64, Rate: 120, Duration: nanoDur * 3 / 4, MaxAmount: 5,
	})
	m := nano.RunWithTransfers(nanoDur, load)
	if !assess {
		return m, false, nil
	}
	// Convergence is judged at quiescence: the metrics freeze at the E9
	// cutoff (baseline cells stay byte-identical to E9), then the event
	// queue drains — the saturated §VI-B backlog settles and only real
	// divergence (an unhealed split, a node that never caught up) remains.
	nano.Sim().Run(0)
	return m, nano.LatticeConverged(), nil
}

// e9NanoSystem builds an E9 Nano sweep point. Every batch setting runs
// the identical network, seed and workload, so the batched row isolates
// the live-gossip settlement pipeline (§VI-B: throughput bounded by
// hardware, not protocol).
func e9NanoSystem(cfg Config, label, capacity string, batch int, window time.Duration) func() (e9SysResult, error) {
	return func() (e9SysResult, error) {
		m, _, err := e9Nano(cfg, batch, window, nil, false)
		if err != nil {
			return e9SysResult{}, err
		}
		return e9SysResult{tps: m.BPS, row: []string{
			label, "none (per-account)", capacity,
			metrics.F(m.BPS), "306 peak / 105.75 avg", metrics.I(m.UnsettledAtEnd)}}, nil
	}
}

// e9BitcoinSystems is the bitcoin paradigm's E9 contribution: ~1900
// transactions per 1 MB block every 10 min. The interval is shortened
// 20× for simulation; the byte budget shrinks with it and is expressed
// in *our* ~198 B transfer encoding so the per-block transaction count
// — what the paper's 3–7 TPS reflects — matches mainnet's (1900 ×
// 198 B ÷ 20 ≈ 19 KB per 30 s). The network itself lives in e9Bitcoin,
// shared with E14's fault scenarios.
func e9BitcoinSystems(cfg Config) []e9System {
	return []e9System{{key: "bitcoin", run: func() (e9SysResult, error) {
		m, _, err := e9Bitcoin(cfg, nil)
		if err != nil {
			return e9SysResult{}, err
		}
		return e9SysResult{tps: m.TPS, row: []string{
			"bitcoin (PoW)", "10 min (scaled 30 s)", "1 MB blocks",
			metrics.F(m.TPS), "3–7", metrics.I(m.PendingAtEnd)}}, nil
	}}}
}

// e9EthereumSystems is the ethereum paradigm's E9 contribution: the PoW
// and PoS consensus variants, two sweep systems from one registration.
func e9EthereumSystems(cfg Config) []e9System {
	net8 := func(seed int64) netsim.NetParams {
		return netParams(8, 3, seed, 50*time.Millisecond, 500*time.Millisecond)
	}
	dur := cfg.dur(12 * time.Minute)
	return []e9System{
		// Ethereum PoW: 15 s blocks, gas-limited. The 2018 mainnet ran an
		// 8M gas limit with an average transaction of ~50k gas (contract
		// mix); our workload is pure 21k-gas transfers, so the equivalent
		// per-block budget is 8M × 21/50 ≈ 3.4M.
		{key: "eth-pow", run: func() (e9SysResult, error) {
			ethParams := account.DefaultParams()
			ethParams.InitialGasLimit = 3_400_000
			ethParams.TargetGasLimit = 3_400_000
			eth, err := netsim.NewEthereum(netsim.EthereumConfig{
				Net: net8(cfg.Seed + 1), Consensus: netsim.PoW, Ledger: ethParams,
				BlockInterval: 15 * time.Second, Accounts: 128,
			})
			if err != nil {
				return e9SysResult{}, err
			}
			load := workload.Payments(rand.New(rand.NewSource(cfg.Seed+101)), workload.Config{
				Accounts: 128, Rate: 40, Duration: dur, MaxAmount: 50,
			})
			m := eth.RunWithPayments(dur, load, 1)
			return e9SysResult{tps: m.TPS, row: []string{
				"ethereum (PoW)", "15 s", "8M gas (≈3.4M at transfer gas)",
				metrics.F(m.TPS), "7–15", metrics.I(m.PendingAtEnd)}}, nil
		}},
		// Ethereum PoS: 4 s slots ("the transition to PoS should decrease
		// Ethereum's block generation time to 4 seconds or lower").
		{key: "eth-pos", run: func() (e9SysResult, error) {
			pos, err := netsim.NewEthereum(netsim.EthereumConfig{
				Net: net8(cfg.Seed + 2), Consensus: netsim.PoS,
				BlockInterval: 4 * time.Second, Accounts: 128,
			})
			if err != nil {
				return e9SysResult{}, err
			}
			load := workload.Payments(rand.New(rand.NewSource(cfg.Seed+102)), workload.Config{
				Accounts: 128, Rate: 60, Duration: dur, MaxAmount: 50,
			})
			m := pos.RunWithPayments(dur, load, 1)
			return e9SysResult{tps: m.TPS, row: []string{
				"ethereum (PoS)", "4 s", "8M gas blocks",
				metrics.F(m.TPS), "> PoW", metrics.I(m.PendingAtEnd)}}, nil
		}},
	}
}

// e9NanoSystems is the nano paradigm's E9 contribution: the serial
// system plus, when -nano-batch opts in, the batched twin of the same
// network — the serial-vs-batched sweep column. Unset keeps the
// historical serial-only table.
func e9NanoSystems(cfg Config) []e9System {
	out := []e9System{{key: "nano",
		run: e9NanoSystem(cfg, "nano (ORV)", "node hardware", 1, 0)}}
	if cfg.NanoBatch > 1 {
		out = append(out, e9System{key: "nano-batch", run: e9NanoSystem(cfg,
			fmt.Sprintf("nano (ORV, batch=%d)", cfg.NanoBatch),
			"node hardware + gossip batch", cfg.NanoBatch, cfg.NanoBatchWindow)})
	}
	return out
}

// RunE9Throughput reproduces §VI's throughput comparison: Bitcoin 3–7
// TPS (1 MB blocks every ~10 min), Ethereum 7–15 TPS (gas-limited ~15 s
// blocks), PoS at ~4 s blocks, Nano protocol-uncapped but bounded by
// node hardware (306 TPS peak / 105.75 avg on the 2018 stress test), the
// cooperative tangle at its own hardware-bound vertex rate, and Visa's
// 56,000 TPS as the yardstick. Each system runs under a saturating
// workload; the pending backlog mirrors the paper's 186,951/22,473
// queue observations. The system list comes from the paradigm registry
// (Config.Paradigms filters it): every selected paradigm contributes
// its sweep systems in registry order.
func RunE9Throughput(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable("E9 (§VI): throughput under saturation",
		"system", "block-interval", "capacity-limit", "measured-tps", "paper-range", "pending-at-end")

	// The systems are independent simulations with disjoint seeds (each
	// workload rng derives from cfg.Seed and the system index), so they
	// fan out across cfg.Workers and report in fixed registry order.
	systems := e9Systems(cfg)
	results, err := fanOut(ctx, cfg, len(systems), func(i int) (e9SysResult, error) { return systems[i].run() })
	if err != nil {
		return nil, err
	}
	tpsOf := map[string]float64{}
	for i, r := range results {
		t.AddRow(r.row...)
		tpsOf[systems[i].key] = r.tps
	}

	t.AddRow("visa (reference)", "—", "central infrastructure", "56000.00", "56,000", "—")
	t.AddNote("blockchains are capped by block size/gas × interval; Nano has 'no inherent cap in the protocol itself' (§VI-B)")
	t.AddNote("pending backlogs mirror §VI's queues: 186,951 (Bitcoin) vs 22,473 (Ethereum) pending on 05.01.2018")
	if cfg.NanoBatch > 1 && cfg.paradigmEnabled("nano") {
		t.AddNote("the batched nano row settles gossip through lattice.ProcessBatch ingest batches (-nano-batch); batch=1 reproduces the serial row")
	}
	// The §VI ordering claims, checked for whichever systems the filter
	// kept: blockchains under the gas-limited chain, both under the DAGs.
	if btc, eth, ok := pair(tpsOf, "bitcoin", "eth-pow"); ok && btc >= eth {
		return nil, fmt.Errorf("core: e9 shape violated: bitcoin %.2f >= ethereum %.2f TPS", btc, eth)
	}
	if eth, nano, ok := pair(tpsOf, "eth-pow", "nano"); ok && eth >= nano {
		return nil, fmt.Errorf("core: e9 shape violated: ethereum %.2f >= nano %.2f", eth, nano)
	}
	return t, nil
}

// pair fetches two systems' sweep values when both ran.
func pair(m map[string]float64, a, b string) (float64, float64, bool) {
	va, oka := m[a]
	vb, okb := m[b]
	return va, vb, oka && okb
}

// RunE10BlockSize reproduces §VI-A's block-size tradeoff: bigger blocks
// raise TPS but slow propagation until "consumer hardware would become
// unable to process blocks", centralizing the network. Propagation time
// as a fraction of the block interval is the centralization proxy.
func RunE10BlockSize(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable("E10 (§VI-A): block-size increase (Segwit2x debate)",
		"block-size", "measured-tps", "p95-propagation", "propagation/interval", "orphan-rate")
	const interval = 30 * time.Second
	// Each block size is an independent simulated network with its own
	// seed; the five sweep points fan out across cfg.Workers and the rows
	// are emitted in size order regardless of completion order.
	sizes := []int{1, 2, 4, 8, 16}
	rows, err := fanOut(ctx, cfg, len(sizes), func(i int) ([]string, error) {
		mb := sizes[i]
		params := utxo.DefaultParams()
		params.MaxBlockBytes = mb * 19_000 // mainnet-equivalent MB, scaled as in E9
		params.RetargetWindow = 1 << 30
		params.GenesisOutputsPerAccount = 64
		net, err := netsim.NewBitcoin(netsim.BitcoinConfig{
			Net: netsim.NetParams{
				Nodes: 10, PeerDegree: 3, Seed: cfg.Seed,
				MinLatency:  50 * time.Millisecond,
				MaxLatency:  300 * time.Millisecond,
				BytesPerSec: 100_000, // consumer-grade links
			},
			Ledger: params, BlockInterval: interval,
			Accounts: 128, InitialBalance: 1 << 32,
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(mb)))
		dur := cfg.dur(10 * time.Minute)
		load := workload.Payments(rng, workload.Config{
			Accounts: 128, Rate: 120, Duration: dur, MaxAmount: 10,
		})
		m := net.RunWithPayments(dur, load, 5)
		p95 := time.Duration(m.Propagation.Quantile(0.95) * float64(time.Second))
		return []string{
			fmt.Sprintf("%d MB", mb), metrics.F(m.TPS), metrics.Dur(p95),
			metrics.Pct(float64(p95) / float64(interval)), metrics.Pct(m.OrphanRate),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("TPS grows with block size, but propagation eats into the interval — the §VI-A centralization pressure toward 'supercomputers'")
	return t, nil
}

// RunE11OffChain reproduces §VI-A's off-chain scaling: payment channels
// (Lightning/Raiden) run micro-transactions with two on-chain operations
// total, and Plasma commits thousands of sidechain transactions under one
// 40-byte Merkle root, with fraud proofs punishing a Byzantine operator.
func RunE11OffChain(ctx context.Context, cfg Config) (*metrics.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	t := metrics.NewTable("E11 (§VI-A): off-chain scaling",
		"approach", "logical-txs", "on-chain-cost", "amplification")

	// On-chain baseline: every payment is an on-chain transaction.
	n := cfg.count(10_000)
	t.AddRow("on-chain payments", metrics.I(n), fmt.Sprintf("%d txs", n), "1.0x")

	// Payment channel: open, stream, close.
	a, b := keys.Deterministic("e11-a"), keys.Deterministic("e11-b")
	ch, err := channels.OpenChannel(a, b, uint64(n), 0, time.Minute)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := ch.Pay(a.Address(), 1); err != nil {
			return nil, err
		}
	}
	if _, _, err := ch.CooperativeClose(); err != nil {
		return nil, err
	}
	t.AddRow("payment channel", metrics.I(ch.Updates()),
		fmt.Sprintf("%d txs (open+close)", ch.OnChainOps()),
		fmt.Sprintf("%.0fx", float64(ch.Updates())/float64(ch.OnChainOps())))

	// Plasma: commit batches of sidechain transactions as Merkle roots.
	ring := keys.NewRing("e11-plasma", 4)
	rc, err := plasma.NewRootChain(ring.Addr(0), 1_000)
	if err != nil {
		return nil, err
	}
	op := plasma.NewOperator(ring.Pair(0), rc)
	op.SetWorkers(cfg.Workers)
	op.Deposit(ring.Addr(1), uint64(n))
	perBlock := n / 10
	for blk := 0; blk < 10; blk++ {
		for i := 0; i < perBlock; i++ {
			if err := op.Submit(ring.Addr(1), ring.Addr(2), 1); err != nil {
				return nil, err
			}
		}
		if _, err := op.Seal(); err != nil {
			return nil, err
		}
	}
	t.AddRow("plasma sidechain", metrics.I(op.TxsCommitted()),
		fmt.Sprintf("%d B in roots", rc.OnChainBytes()),
		fmt.Sprintf("%.0fx bytes", op.CompressionRatio()))

	// The faulty state: fraud proof slashes the operator.
	evilRC, err := plasma.NewRootChain(ring.Addr(0), 500)
	if err != nil {
		return nil, err
	}
	evil := plasma.NewOperator(ring.Pair(0), evilRC)
	evil.SetWorkers(cfg.Workers)
	evil.AllowFraud()
	evil.Deposit(ring.Addr(1), 1)
	if err := evil.Submit(ring.Addr(1), ring.Addr(3), 9_999); err != nil {
		return nil, err
	}
	blk, err := evil.Seal()
	if err != nil {
		return nil, err
	}
	proof, err := blk.Prove(0)
	if err != nil {
		return nil, err
	}
	reward, err := evilRC.SubmitFraudProof(blk.Number, blk.Txs[0], proof)
	if err != nil {
		return nil, err
	}
	t.AddNote("channels: 'micro transactions at high volume and speed, avoiding the transaction cap of the network' (§VI-A)")
	t.AddNote(fmt.Sprintf("plasma fraud proof demonstrated: Byzantine operator slashed, %d bond awarded to the prover", reward))
	return t, nil
}

// RunE12Sharding reproduces the two scalability endgames of §VI: K-way
// sharding for blockchains ("no longer forcing all nodes to process all
// incoming transactions") and Nano's hardware-bound throughput (§VI-B:
// protocol-uncapped, limited by "consumer grade hardware and network
// conditions").
func RunE12Sharding(ctx context.Context, cfg Config) (*metrics.Table, error) {
	cfg = cfg.withDefaults()
	t := metrics.NewTable("E12 (§VI-A/B): sharding and DAG hardware limits",
		"configuration", "throughput", "load-factor", "per-tx-work")

	// Every shard count and every hardware budget is an independent
	// network; both sweeps fan out across cfg.Workers in row order.
	ring := keys.NewRing("e12", 256)
	rounds := cfg.count(20)
	shardCounts := []int{1, 2, 4, 8, 16}
	shardRows, err := fanOut(ctx, cfg, len(shardCounts), func(idx int) ([]string, error) {
		k := shardCounts[idx]
		net, err := sharding.NewNetwork(k)
		if err != nil {
			return nil, err
		}
		for i := 0; i < ring.Len(); i++ {
			net.Fund(ring.Addr(i), 1_000_000)
		}
		for round := 0; round < rounds; round++ {
			for i := 0; i < ring.Len(); i++ {
				if err := net.Transfer(ring.Addr(i), ring.Addr((i+round+1)%ring.Len()), 1); err != nil {
					return nil, err
				}
			}
			if err := net.SealAll(); err != nil {
				return nil, err
			}
		}
		load := net.Load()
		cross := float64(load.CrossTxs) / float64(load.CrossTxs+load.LocalTxs)
		capacity := sharding.CapacityTPS(k, 100, cross)
		return []string{
			fmt.Sprintf("blockchain, K=%d shards (%.0f%% cross)", k, 100*cross),
			fmt.Sprintf("%.0f tps @100/node", capacity),
			metrics.Pct(load.LoadFactor),
			metrics.F(load.PerTxWork),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range shardRows {
		t.AddRow(row...)
	}

	// Nano under increasing hardware budgets, serial and batched: the
	// serial points reproduce the historical rows byte for byte; the
	// batched points rerun the identical network with the live-gossip
	// ingest queue enabled (Config.NanoBatch) — the batched-vs-serial
	// sweep column of §VI-B. Opt-in via -nano-batch > 1; unset keeps the
	// historical serial-only table.
	procs := []time.Duration{20 * time.Millisecond, 5 * time.Millisecond, 1 * time.Millisecond}
	type nanoPoint struct {
		proc  time.Duration
		batch int
	}
	points := make([]nanoPoint, 0, 2*len(procs))
	for _, proc := range procs {
		points = append(points, nanoPoint{proc: proc, batch: 1})
	}
	if cfg.NanoBatch > 1 {
		for _, proc := range procs {
			points = append(points, nanoPoint{proc: proc, batch: cfg.NanoBatch})
		}
	}
	nanoRows, err := fanOut(ctx, cfg, len(points), func(idx int) ([]string, error) {
		pt := points[idx]
		net, err := netsim.NewNano(netsim.NanoConfig{
			Net:      netParams(8, 3, cfg.Seed, 10*time.Millisecond, 60*time.Millisecond),
			Accounts: 64, Reps: 4,
			BatchSize: pt.batch, BatchWindow: cfg.NanoBatchWindow,
			ProcPerBlock: pt.proc, ProcPerVote: pt.proc / 10,
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		dur := cfg.dur(30 * time.Second)
		load := workload.Payments(rng, workload.Config{
			Accounts: 64, Rate: 150, Duration: dur * 3 / 4, MaxAmount: 5,
		})
		m := net.RunWithTransfers(dur, load)
		label := fmt.Sprintf("nano, %v/block hardware", pt.proc)
		if pt.batch > 1 {
			label = fmt.Sprintf("nano, %v/block hardware, batch=%d", pt.proc, pt.batch)
		}
		return []string{
			label,
			fmt.Sprintf("%.1f blocks/s", m.BPS),
			"1 (every node processes all)", "2.00",
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range nanoRows {
		t.AddRow(row...)
	}
	t.AddNote("sharding: load factor ≈ 1/K — the §VII definition of a scalable DLT")
	t.AddNote("nano: protocol-uncapped; faster hardware raises the ceiling (306 TPS peak vs 105.75 avg in the 2018 stress test)")
	if cfg.NanoBatch > 1 {
		t.AddNote("batch rows: gossip settles through lattice.ProcessBatch ingest batches, amortizing the per-block budget across modeled cores")
	}
	return t, nil
}
