// Package dlt is the public facade of the DLT comparison library — a
// from-scratch Go reproduction of "Distributed Ledger Technology:
// Blockchain Compared to Directed Acyclic Graph" (Benčić & Podnar Žarko,
// ICDCS 2018). It re-exports the stable API: the reference systems
// (a Bitcoin-like UTXO chain, an Ethereum-like account/gas chain with PoW
// or PoS+FFG, a Nano-like block-lattice with Open Representative Voting,
// and an IOTA-like cooperative tangle where every transaction is its own
// DAG vertex), the discrete-event network simulations that run them, the
// ledger-paradigm registry the cross-paradigm experiments iterate, and
// the experiment registry that regenerates every figure and quantitative
// claim in the paper.
//
// Quick start:
//
//	cfg := dlt.Config{Seed: 42, Scale: 1}
//	for _, e := range dlt.Experiments() {
//	    table, err := e.Run(context.Background(), cfg)
//	    ...
//	    table.Render(os.Stdout)
//	}
//
// See examples/ for runnable programs, and Experiments (printed by
// dltbench -list) for the section of the paper each table reproduces.
package dlt

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// Config tunes experiment runs (seed and scale).
type Config = core.Config

// Experiment reproduces one figure or claim of the paper.
type Experiment = core.Experiment

// Table is the rendered result of an experiment.
type Table = metrics.Table

// Network simulation configurations and constructors.
type (
	// NetParams bundles node count, gossip topology and link model.
	NetParams = netsim.NetParams
	// FaultSchedule scripts partitions, churn and lossy periods onto a
	// running chain or block-lattice simulation (ApplyToBitcoin/
	// ApplyToEthereum/ApplyToNano; the tangle has no fault arm yet). A
	// non-empty schedule also arms the network's sync manager; the zero
	// value injects and arms nothing.
	FaultSchedule = netsim.FaultSchedule
	// PartitionWindow, ChurnWindow and LossWindow are FaultSchedule
	// entries.
	PartitionWindow = netsim.PartitionWindow
	ChurnWindow     = netsim.ChurnWindow
	LossWindow      = netsim.LossWindow
	// DoubleSpendPlan schedules a contested double spend on a NanoNet;
	// DoubleSpendOutcome is the observer's verdict after the run.
	DoubleSpendPlan    = netsim.DoubleSpendPlan
	DoubleSpendOutcome = netsim.DoubleSpendOutcome
	// BitcoinConfig parameterizes a Bitcoin-like PoW network.
	BitcoinConfig = netsim.BitcoinConfig
	// EthereumConfig parameterizes an Ethereum-like network (PoW/PoS).
	EthereumConfig = netsim.EthereumConfig
	// NanoConfig parameterizes a Nano-like block-lattice network.
	NanoConfig = netsim.NanoConfig
	// TangleConfig parameterizes an IOTA-like cooperative tangle: every
	// transaction is its own vertex approving earlier vertices, and
	// confirmation is cumulative approval coverage crossing ConfirmWeight.
	TangleConfig = netsim.TangleConfig
	// TipSelector is the tangle's strategy seam: which tips a new vertex
	// approves. The default is uniform random tip selection (URTS).
	TipSelector = netsim.TipSelector
	// BitcoinNet, EthereumNet, NanoNet and TangleNet are running
	// simulations.
	BitcoinNet  = netsim.BitcoinNet
	EthereumNet = netsim.EthereumNet
	NanoNet     = netsim.NanoNet
	TangleNet   = netsim.TangleNet
	// ChainMetrics, NanoMetrics and TangleMetrics are run results.
	ChainMetrics  = netsim.ChainMetrics
	NanoMetrics   = netsim.NanoMetrics
	TangleMetrics = netsim.TangleMetrics
	// ParadigmSpec is one entry of the ledger-paradigm registry: every
	// network constructor (NewBitcoin/NewEthereum/NewNano/NewTangle)
	// registers a uniform Build hook, and the cross-paradigm experiments
	// (E9, E19, E20) iterate the registry instead of hard-coding systems.
	// Its Family field tags the paper's side ("blockchain" or "dag").
	// ParadigmNet is the uniform handle a Build returns; ParadigmMetrics
	// is its paradigm-neutral run summary; BuildOptions carries the
	// workload knobs shared across paradigms.
	ParadigmSpec    = netsim.ParadigmSpec
	ParadigmNet     = netsim.ParadigmNet
	ParadigmMetrics = netsim.ParadigmMetrics
	BuildOptions    = netsim.BuildOptions
	// Behavior is the per-node strategy seam of the shared node runtime:
	// interception points for peer filtering, inbound/outbound traffic,
	// block production and consensus votes. HonestBehavior is the
	// pass-through default custom behaviors embed.
	Behavior       = netsim.Behavior
	HonestBehavior = netsim.HonestBehavior
	// NodeRuntime is the shared per-node lifecycle layer (reachable via
	// each network's Runtime method); BehaviorStats counts what installed
	// behaviors suppressed.
	NodeRuntime   = netsim.NodeRuntime
	BehaviorStats = netsim.BehaviorStats
	// EclipseBehavior, SelfishMiningBehavior and VoteWithholdBehavior are
	// the scripted adversaries behind E16/E17; EclipseReport summarizes a
	// victim's divergence after an eclipse run.
	EclipseBehavior       = netsim.EclipseBehavior
	SelfishMiningBehavior = netsim.SelfishMiningBehavior
	VoteWithholdBehavior  = netsim.VoteWithholdBehavior
	EclipseReport         = netsim.EclipseReport
	// ParasiteChainBehavior is the tangle's scripted adversary (E21): an
	// attacker node grows a hidden sub-tangle off an old anchor and
	// releases it at a chosen depth, measuring how far self-attached
	// weight carries under pure cumulative-coverage confirmation.
	ParasiteChainBehavior = netsim.ParasiteChainBehavior
	// ChainDoubleSpendPlan and LatticeDoubleSpendPlan schedule EXECUTED
	// double spends (E18): the attack is carried through to a wrong
	// settlement — eclipse-fed payments, partition-hidden forks — and
	// the outcome reports whether the victim's accepted payment was
	// actually reverted.
	ChainDoubleSpendPlan      = netsim.ChainDoubleSpendPlan
	ChainDoubleSpendHandle    = netsim.ChainDoubleSpendHandle
	ChainDoubleSpendOutcome   = netsim.ChainDoubleSpendOutcome
	LatticeDoubleSpendPlan    = netsim.LatticeDoubleSpendPlan
	LatticeDoubleSpendHandle  = netsim.LatticeDoubleSpendHandle
	LatticeDoubleSpendOutcome = netsim.LatticeDoubleSpendOutcome
)

// Consensus selects PoW or PoS for Ethereum-like networks.
const (
	PoW = netsim.PoW
	PoS = netsim.PoS
)

// NewBitcoinNetwork builds a Bitcoin-like network simulation.
func NewBitcoinNetwork(cfg BitcoinConfig) (*BitcoinNet, error) { return netsim.NewBitcoin(cfg) }

// NewEthereumNetwork builds an Ethereum-like network simulation.
func NewEthereumNetwork(cfg EthereumConfig) (*EthereumNet, error) { return netsim.NewEthereum(cfg) }

// NewNanoNetwork builds a Nano-like block-lattice network simulation.
func NewNanoNetwork(cfg NanoConfig) (*NanoNet, error) { return netsim.NewNano(cfg) }

// NewTangleNetwork builds an IOTA-like cooperative tangle simulation.
func NewTangleNetwork(cfg TangleConfig) (*TangleNet, error) { return netsim.NewTangle(cfg) }

// Paradigms returns the ledger-paradigm registry in comparison order
// (bitcoin, ethereum, nano, tangle); ParadigmNames returns just the
// names, and ParadigmByName resolves one entry or errors with the legal
// spellings. Config.Paradigms filters the cross-paradigm experiments by
// these names.
func Paradigms() []ParadigmSpec { return netsim.Paradigms() }

// ParadigmNames lists the registered paradigm names in registry order.
func ParadigmNames() []string { return netsim.ParadigmNames() }

// ParadigmByName resolves a registry entry by name.
func ParadigmByName(name string) (ParadigmSpec, error) { return netsim.ParadigmByName(name) }

// Run and Report are the worker-pool scheduler's per-experiment and
// aggregate results.
type (
	Run    = core.Run
	Report = core.Report
)

// RunAll executes the full registry concurrently with bounded parallelism
// (workers <= 0 means runtime.NumCPU; 1 reproduces the serial sweep). Each
// experiment runs under a deterministic derived seed, so results are
// identical for any worker count. The returned error aggregates every
// experiment failure.
func RunAll(cfg Config, workers int) (*Report, error) { return core.RunAll(cfg, workers) }

// RunAllContext is RunAll with cancellation: experiments not yet started
// when ctx is done are marked with ctx's error instead of running.
func RunAllContext(ctx context.Context, cfg Config, workers int) (*Report, error) {
	return core.RunAllContext(ctx, cfg, workers)
}

// Experiments returns the full registry (E1…E21) in paper order.
func Experiments() []Experiment { return core.Experiments() }

// ExperimentByID looks up one experiment.
func ExperimentByID(id string) (Experiment, error) { return core.ByID(id) }

// RunExperiment executes an experiment under ctx and renders its table
// to w. Cancelling ctx interrupts the experiment between sweep points.
func RunExperiment(ctx context.Context, id string, cfg Config, w io.Writer) error {
	e, err := core.ByID(id)
	if err != nil {
		return err
	}
	table, err := e.Run(ctx, cfg)
	if err != nil {
		return fmt.Errorf("dlt: %s: %w", id, err)
	}
	if _, err := fmt.Fprintf(w, "%s [§%s]\n", e.Title, e.Section); err != nil {
		return err
	}
	if err := table.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w)
	return err
}
