// Package core is the reproduction of the paper's contribution: the
// five-dimension comparison of blockchain and DAG distributed ledgers
// (data structures §II, consensus §III, confirmation confidence §IV,
// ledger size §V, scalability §VI). Every figure and quantitative claim
// in the paper maps to one Experiment here; running an experiment
// regenerates the corresponding table with the same shape — who wins, by
// what factor, where the crossovers fall.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Config tunes experiment runs.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce results exactly.
	Seed int64
	// Scale stretches or shrinks simulated durations and workload sizes
	// (1.0 = each experiment's full-size defaults, the registry that
	// Experiments returns; tests use less).
	Scale float64
	// Workers bounds intra-experiment parallelism: experiments whose
	// sweep points are independent simulations (E9, E10, E12) fan them
	// out across this many goroutines (<= 0 means one per CPU core).
	// Results are identical for every value.
	Workers int
	// FaultPartitionFrac is the share of nodes split away into group 1
	// during E14's partition scenarios (default 0.5; values outside
	// (0,1) fall back to it). Node 0, the observer, always stays in
	// group 0 — the minority side only while the fraction is <= 0.5.
	// The baseline rows always run unfaulted regardless.
	FaultPartitionFrac float64
	// FaultChurnNodes is how many nodes leave and rejoin during E14's
	// churn scenarios (default 2; the experiment clamps it to its 8-node
	// networks, observer excluded, and labels rows with the clamped
	// count).
	FaultChurnNodes int
	// DoubleSpendTrials is the number of independent contested
	// double-spend networks E15 runs per attacker-weight sweep point
	// (default 3). Each trial uses its own derived seed.
	DoubleSpendTrials int
	// EclipseFrac adds one extra captured-peer fraction to E16's sweep
	// (inserted in sorted position, deduplicated). Zero — or a value
	// outside (0, 1] — keeps the default {0, 25%, 50%, 75%, 100%} sweep.
	EclipseFrac float64
	// SelfishAlpha adds one extra adversary hash-share point to E17's
	// selfish-mining sweep. Zero — or a value outside (0, 1) — keeps the
	// default {0, 15%, 25%, 35%, 45%} sweep.
	SelfishAlpha float64
	// SelfishGamma is Eyal–Sirer's connectivity parameter for E17's
	// selfish-mining rows: the fraction of honest hash power that mines
	// on the adversary's block while the 1-1 race is open. Zero (the
	// default, and any value outside [0, 1]) reproduces the historical
	// first-seen races byte for byte; the classic profitability
	// thresholds fall from 1/3 (γ=0) through 1/4 (γ=1/2) to 0 (γ=1).
	SelfishGamma float64
	// WithholdWeight adds one extra withheld-weight fraction to E17's
	// vote-withholding sweep. Zero — or a value outside (0, 1] — keeps
	// the default {0, 25%, 55%} sweep.
	WithholdWeight float64
	// MegaNodes appends one extra node-count point to E19's sweep on
	// both paradigms — the 10⁶-node frontier. The point is time- and
	// memory-budgeted: it reuses the fixed sweep workload, keeps the
	// sweep's scaled horizon, and caps latency-histogram storage via
	// streaming quantiles, so it completes under a pinned memory-per-
	// node budget (pinned by test). <= 0 (the default) keeps the
	// historical sweep byte-identical.
	MegaNodes int
	// DepthSweep adds E18's confirmation-depth sweep rows: the executed
	// chain double spend rerun for merchant rules z = 1…6 against two
	// attack-window lengths, with the E15 analytic catch-up odds beside
	// each. False (the default) keeps the historical E18 table
	// byte-identical.
	DepthSweep bool
	// Paradigms filters which registered ledger paradigms the
	// cross-paradigm comparison experiments (E9, E19, E20) build rows
	// for, by netsim registry name ("bitcoin", "ethereum", "nano",
	// "tangle"). Empty — or any entry equal to "all" — selects every
	// registered paradigm, the historical tables. dltbench validates
	// spellings against netsim.ParadigmNames() before they get here.
	Paradigms []string
	// SyncPullBatch is E20's cold-start range-pull window: how many
	// history blocks one sync request asks a peer for. <= 0 means the
	// sync manager's default (32).
	SyncPullBatch int
	// BacklogCap bounds the per-node backlog buffers in E20's networks —
	// the chain orphan pool, the lattice gap buffer, the tangle's parked
	// vertices (netsim.NetParams.BacklogCap).
	// <= 0 keeps the package defaults.
	BacklogCap int
	// BacklogTTL evicts E20's parked backlog objects by age (simulation
	// time): an orphan, gap or parked vertex older than the TTL is
	// dropped on the next arrival even while its buffer is under
	// BacklogCap (netsim.NetParams.BacklogTTL). <= 0 (the default)
	// disables age-based eviction and keeps tables byte-identical.
	BacklogTTL time.Duration
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.FaultPartitionFrac <= 0 || c.FaultPartitionFrac >= 1 {
		c.FaultPartitionFrac = 0.5
	}
	if c.FaultChurnNodes <= 0 {
		c.FaultChurnNodes = 2
	}
	if c.DoubleSpendTrials <= 0 {
		c.DoubleSpendTrials = 3
	}
	if c.EclipseFrac <= 0 || c.EclipseFrac > 1 {
		c.EclipseFrac = 0
	}
	if c.SelfishAlpha <= 0 || c.SelfishAlpha >= 1 {
		c.SelfishAlpha = 0
	}
	if c.SelfishGamma <= 0 || c.SelfishGamma > 1 {
		c.SelfishGamma = 0
	}
	if c.WithholdWeight <= 0 || c.WithholdWeight > 1 {
		c.WithholdWeight = 0
	}
	if c.MegaNodes < 0 {
		c.MegaNodes = 0
	}
	if c.BacklogTTL < 0 {
		c.BacklogTTL = 0
	}
	return c
}

// dur scales a baseline duration.
func (c Config) dur(base time.Duration) time.Duration {
	return time.Duration(float64(base) * c.Scale)
}

// count scales a baseline count (minimum 1).
func (c Config) count(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// Experiment reproduces one figure or quantitative claim of the paper.
type Experiment struct {
	// ID is the experiment key (E1…E21).
	ID string
	// Title names the reproduced artifact.
	Title string
	// Section is the paper section the artifact appears in.
	Section string
	// Run executes the experiment and renders its table. Cancelling ctx
	// interrupts the experiment between sweep points — mid-flight, not
	// just between experiments.
	Run func(ctx context.Context, cfg Config) (*metrics.Table, error)
}

// Experiments returns the full registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Fig. 1 — blockchain as a data structure", Section: "II-A", Run: RunE1BlockchainStructure},
		{ID: "E2", Title: "Fig. 2 — Nano's DAG, the block-lattice", Section: "II-B", Run: RunE2BlockLattice},
		{ID: "E3", Title: "Fig. 3 — send/receive settlement in the block lattice", Section: "II-B", Run: RunE3Settlement},
		{ID: "E4", Title: "Fig. 4 — temporary blockchain forks", Section: "IV-A", Run: RunE4Forks},
		{ID: "E5", Title: "confirmation confidence vs depth (6 conf BTC, 5–11 ETH)", Section: "IV-A", Run: RunE5Confirmation},
		{ID: "E6", Title: "Nano vote-based confirmation", Section: "IV-B", Run: RunE6VoteConfirmation},
		{ID: "E7", Title: "ledger size (145.95 / 39.62 / 3.42 GB)", Section: "V", Run: RunE7LedgerSize},
		{ID: "E8", Title: "pruning: block files, fast sync, head-only", Section: "V", Run: RunE8Pruning},
		{ID: "E9", Title: "throughput: 3–7 / 7–15 / uncapped TPS", Section: "VI", Run: RunE9Throughput},
		{ID: "E10", Title: "block-size increase vs centralization", Section: "VI-A", Run: RunE10BlockSize},
		{ID: "E11", Title: "off-chain scaling: channels and Plasma", Section: "VI-A", Run: RunE11OffChain},
		{ID: "E12", Title: "sharding and DAG hardware limits", Section: "VI-A/B", Run: RunE12Sharding},
		{ID: "E13", Title: "consensus properties: PoW, PoS, ORV", Section: "III", Run: RunE13Consensus},
		{ID: "E14", Title: "partition & churn resilience: reorg depth vs re-election", Section: "IV", Run: RunE14Resilience},
		{ID: "E15", Title: "double-spend success vs attacker weight/hashrate", Section: "IV", Run: RunE15DoubleSpend},
		{ID: "E16", Title: "eclipse attack: victim lag & double-spend exposure vs captured peers", Section: "IV", Run: RunE16Eclipse},
		{ID: "E17", Title: "selfish mining & vote withholding vs adversary power", Section: "III/IV", Run: RunE17Strategy},
		{ID: "E18", Title: "executed double-spends under combined adversaries (eclipse, hidden forks)", Section: "IV", Run: RunE18ExecutedDoubleSpend},
		{ID: "E19", Title: "scaling law: throughput, finality & memory per node vs network size", Section: "VI", Run: RunE19ScalingLaw},
		{ID: "E20", Title: "cold-start bootstrap: catch-up latency & pulled bytes vs ledger length", Section: "V", Run: RunE20ColdStart},
		{ID: "E21", Title: "tangle confirmation: coverage threshold & parasite chain", Section: "IV", Run: RunE21TangleConfirmation},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}
