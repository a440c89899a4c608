package main

// The four workloads. Each is a set of legs; sizes are fixed here and
// move only with -scale (tests). README.md says why each exists and
// what it leaves out; BENCHMARK.json carries the one-line reason.

import (
	"time"

	"repro/internal/account"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/utxo"
	"repro/internal/workload"
)

type workloadDef struct {
	name string
	// links is the delay band sim.UniformLinks injects on the workload's
	// networks (the first leg's, where legs differ).
	links sim.UniformLinks
	// faultFree workloads must end with every sync and drop count at 0.
	faultFree bool
	legs      []leg
}

var workloads = []workloadDef{
	chainSaturation(),
	dagSaturation(),
	scaleGossip(),
	faultResync(),
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func netParams(nodes, degree int, seed int64, lo, hi time.Duration) netsim.NetParams {
	return netsim.NetParams{Nodes: nodes, PeerDegree: degree, Seed: seed, MinLatency: lo, MaxLatency: hi}
}

// poisson is a load of rate arrivals per second over span.
func poisson(seedOff int64, accounts int, rate float64, span time.Duration, maxAmount uint64) load {
	return load{seedOff: seedOff, accounts: accounts, ops: int(rate*span.Seconds() + 0.5), span: span, maxAmount: maxAmount}
}

// chainSaturation is the E9/E10 chain shapes under offered load above
// capacity: signature checks at every node's mempool and again in block
// validation, UTXO and trie apply, chain.Store — a few thousand events.
func chainSaturation() workloadDef {
	const lo, hi = 50 * time.Millisecond, 500 * time.Millisecond
	btc := func(blockBytes, outputs int, rate float64, base time.Duration, netSeed, loadSeed int64) func(*env) (netsim.BitcoinConfig, plan) {
		return func(e *env) (netsim.BitcoinConfig, plan) {
			p := utxo.DefaultParams()
			p.MaxBlockBytes = blockBytes
			p.RetargetWindow = 1 << 30
			p.GenesisOutputsPerAccount = outputs
			horizon := e.dur(base, 10*time.Second)
			return netsim.BitcoinConfig{
				Net: netParams(8, 3, netSeed, lo, hi), Ledger: p, BlockInterval: 30 * time.Second,
				Accounts: 128, InitialBalance: 1 << 32,
			}, plan{load: poisson(loadSeed, 128, rate, horizon, 50), horizon: horizon, coldNode: noCold}
		}
	}
	eth := func(consensus netsim.Consensus, gas uint64, interval time.Duration, rate float64, base time.Duration, netSeed, loadSeed int64) func(*env) (netsim.EthereumConfig, plan) {
		return func(e *env) (netsim.EthereumConfig, plan) {
			p := account.DefaultParams()
			p.InitialGasLimit, p.TargetGasLimit = gas, gas
			horizon := e.dur(base, interval)
			return netsim.EthereumConfig{
				Net: netParams(8, 3, netSeed, lo, hi), Consensus: consensus, Ledger: p,
				BlockInterval: interval, Accounts: 128, InitialBalance: 1 << 40,
			}, plan{load: poisson(loadSeed, 128, rate, horizon, 50), horizon: horizon, coldNode: noCold}
		}
	}
	return workloadDef{
		name: "chain-saturation", faultFree: true,
		links: sim.UniformLinks{MinLatency: lo, MaxLatency: hi},
		legs: []leg{
			// 19 KB blocks every 30 s: ~96 transfers a block against 30/s.
			bitcoinLeg("bitcoin", 10, btc(19_000, 128, 30, 200*time.Second, 11, 1)),
			// E10's 16× block: ~1500 transfers a block, so UTXO apply and
			// the merkle root carry weight beside the mempool.
			bitcoinLeg("bitcoin-16x", 5, btc(16*19_000, 128, 90, 75*time.Second, 15, 2)),
			ethereumLeg("eth-pow", eth(netsim.PoW, 3_400_000, 15*time.Second, 40, 50*time.Second, 13, 3)),
			ethereumLeg("eth-pos", eth(netsim.PoS, 8_000_000, 4*time.Second, 60, 24*time.Second, 14, 4)),
		},
	}
}

// dagSaturation is the DAG twin: lattice, ORV elections and tangle tip
// selection and coverage walks under sustained load, every object
// signed and verified once.
func dagSaturation() workloadDef {
	const lo, hi = 10 * time.Millisecond, 80 * time.Millisecond
	return workloadDef{
		name: "dag-saturation", faultFree: true,
		links: sim.UniformLinks{MinLatency: lo, MaxLatency: hi},
		legs: []leg{
			// E9's consumer-hardware budgets: ~100 transfers/s offered
			// against what 4 ms a block and 0.5 ms a vote let a node take.
			nanoLeg("nano", func(e *env) (netsim.NanoConfig, plan) {
				span := e.dur(30*time.Second, 2*time.Second)
				return netsim.NanoConfig{
					Net: netParams(8, 3, 21, lo, hi), Accounts: 64, Reps: 4, Supply: 1 << 40,
					ProcPerBlock: 4 * time.Millisecond, ProcPerVote: 500 * time.Microsecond,
				}, plan{load: poisson(5, 64, 100, span, 5), horizon: span * 4 / 3, coldNode: noCold}
			}),
			tangleLeg("tangle", func(e *env) (netsim.TangleConfig, plan) {
				span := e.dur(75*time.Second, 2*time.Second)
				return netsim.TangleConfig{
					Net: netParams(8, 3, 22, lo, hi), Accounts: 64, Supply: 1 << 40, ConfirmWeight: 4,
				}, plan{load: poisson(6, 64, 400, span, 5), horizon: span + 5*time.Second, coldNode: noCold}
			}),
		},
	}
}

// gossipBudget is E19's histogram budget: past it the propagation and
// confirmation histograms estimate instead of storing every sample.
const gossipBudget = 1 << 18

// scaleGossip is E19's 10⁴-node point: the same ledgers with almost no
// ledger work and millions of deliveries. The schedules are a handful
// of operations; the cost is each one reaching every node.
func scaleGossip() workloadDef {
	const lo, hi = 20 * time.Millisecond, 200 * time.Millisecond
	const span = 10 * time.Second
	big := func(e *env, seed int64) netsim.NetParams {
		np := netParams(e.count(10_000, 64), 4, seed, lo, hi)
		np.SampleBudget = gossipBudget
		return np
	}
	few := func(seedOff int64, ops int, maxAmount uint64) load {
		return load{seedOff: seedOff, accounts: 16, ops: ops, span: span, maxAmount: maxAmount}
	}
	return workloadDef{
		name: "scale-gossip", faultFree: true,
		links: sim.UniformLinks{MinLatency: lo, MaxLatency: hi},
		legs: []leg{
			bitcoinLeg("bitcoin", 2, func(e *env) (netsim.BitcoinConfig, plan) {
				p := utxo.DefaultParams()
				p.RetargetWindow = 1 << 30
				p.GenesisOutputsPerAccount = 8 // a sender's second payment must not wait for its change
				return netsim.BitcoinConfig{
					Net: big(e, 31), Ledger: p, BlockInterval: 30 * time.Second, Accounts: 16, InitialBalance: 1 << 30,
				}, plan{load: few(7, 20, 20), horizon: 200 * time.Second, coldNode: noCold}
			}),
			nanoLeg("nano", func(e *env) (netsim.NanoConfig, plan) {
				return netsim.NanoConfig{Net: big(e, 32), Accounts: 16, Reps: 4, Supply: 1 << 40},
					plan{load: few(8, 3, 5), horizon: span + 20*time.Second, coldNode: noCold}
			}),
			tangleLeg("tangle", func(e *env) (netsim.TangleConfig, plan) {
				return netsim.TangleConfig{Net: big(e, 33), Accounts: 16, Supply: 1 << 40, ConfirmWeight: 2},
					plan{load: few(9, 26, 5), horizon: span + 20*time.Second, coldNode: noCold}
			}),
		},
	}
}

// faultResync is the E14 + E20 shapes: histories built under moderate
// load with the last node detached from t=0 and, on bitcoin and nano, a
// partition window and a 2% loss window mid-history; then heal, rejoin,
// range-pull, drain.
func faultResync() workloadDef {
	const lo, hi = 20 * time.Millisecond, 200 * time.Millisecond
	// awayFrom drops payments touching an account the cold node owns: a
	// detached owner would mint history the network never sees (E20).
	awayFrom := func(nodes, cold int) func(workload.Payment) bool {
		return func(p workload.Payment) bool { return p.From%nodes != cold && p.To%nodes != cold }
	}
	// The split covers the middle third of the history and the loss
	// window the sixth after it; both end before the cold node rejoins.
	midHistory := func(nodes int, history time.Duration) *netsim.FaultSchedule {
		return &netsim.FaultSchedule{
			Partitions: []netsim.PartitionWindow{{At: history / 3, HealAt: history * 2 / 3, Groups: netsim.SplitGroups(nodes, 0.5)}},
			Loss:       []netsim.LossWindow{{Rate: 0.02, At: history * 2 / 3, Until: history * 5 / 6}},
		}
	}
	net := func(nodes int, seed int64) netsim.NetParams {
		np := netParams(nodes, 4, seed, lo, hi)
		np.SampleBudget = gossipBudget
		return np
	}
	return workloadDef{
		name:  "fault-resync",
		links: sim.UniformLinks{MinLatency: lo, MaxLatency: hi},
		legs: []leg{
			bitcoinLeg("bitcoin", 2, func(e *env) (netsim.BitcoinConfig, plan) {
				const nodes, cold = 10, 9
				rates := make([]float64, nodes) // the cold node relays, never mines
				for i := 0; i < cold; i++ {
					rates[i] = 1
				}
				history := e.dur(16*time.Minute, time.Minute)
				ld := poisson(10, 8, 4, history, 20) // accounts stop short of the cold node's index
				p := utxo.DefaultParams()
				p.RetargetWindow = 1 << 30
				p.GenesisOutputsPerAccount = 64
				return netsim.BitcoinConfig{
						Net: net(nodes, 41), Ledger: p, HashRates: rates, BlockInterval: 10 * time.Second,
						Accounts: 8, InitialBalance: 1 << 30,
					}, plan{load: ld, horizon: history + time.Minute, coldNode: cold, rejoinAt: history,
						faults: midHistory(nodes, history)}
			}),
			nanoLeg("nano", func(e *env) (netsim.NanoConfig, plan) {
				const nodes, cold = 8, 7
				span := e.dur(5*time.Minute, 6*time.Second)
				ld := poisson(11, 16, 4, span, 5)
				ld.keep = awayFrom(nodes, cold)
				// Rejoin after in-flight receives settle: the pulled
				// stream is static.
				rejoin := span + 20*time.Second
				return netsim.NanoConfig{Net: net(nodes, 42), Accounts: 16, Reps: 4, Supply: 1 << 40},
					plan{load: ld, horizon: rejoin + 30*time.Second, coldNode: cold, rejoinAt: rejoin,
						faults: midHistory(nodes, span)}
			}),
			tangleLeg("tangle", func(e *env) (netsim.TangleConfig, plan) {
				const nodes, cold = 8, 7
				span := e.dur(200*time.Second, 6*time.Second)
				ld := poisson(12, 16, 70, span, 5)
				ld.keep = awayFrom(nodes, cold)
				rejoin := span + 20*time.Second
				return netsim.TangleConfig{Net: net(nodes, 43), Accounts: 16, Supply: 1 << 40, ConfirmWeight: 4},
					plan{load: ld, horizon: rejoin + 30*time.Second, coldNode: cold, rejoinAt: rejoin}
			}),
		},
	}
}
