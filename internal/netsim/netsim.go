// Package netsim wires the ledgers, consensus engines and the
// discrete-event network into whole-system simulations: a Bitcoin-like
// PoW network, an Ethereum-like network (PoW or slot-based PoS with FFG
// finality), and a Nano-like block-lattice network with Open
// Representative Voting. These produce the measurements behind every
// table in the benchmark harness — fork and orphan rates (Fig. 4),
// confirmation confidence (§IV), ledger growth (§V) and throughput under
// network and hardware limits (§VI).
package netsim

import (
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/pow"
	"repro/internal/sim"
)

// NetParams bundles the network-level knobs shared by all simulations.
type NetParams struct {
	// Nodes is the number of full nodes.
	Nodes int
	// PeerDegree is the gossip fan-out (default 4).
	PeerDegree int
	// MinLatency and MaxLatency bound per-link propagation delay.
	MinLatency time.Duration
	MaxLatency time.Duration
	// BytesPerSec adds bandwidth serialization delay when > 0 (drives
	// the §VI-A block-size centralization experiment).
	BytesPerSec float64
	// Seed drives all randomness.
	Seed int64
	// SampleBudget caps the exact sample storage of the per-run latency
	// histograms (propagation, confirmation); beyond it they switch to
	// streaming P² estimation with O(1) memory. <= 0 keeps exact
	// histograms, the default — golden-scale runs stay below any
	// reasonable budget, so budgeted runs render identical tables.
	SampleBudget int
	// BacklogCap bounds every node's backlog buffers — the chain orphan
	// pool, the lattice gap buffer, the tangle's parked vertices. <= 0
	// keeps each owner's default (chain.DefaultOrphanLimit,
	// lattice.DefaultGapLimit, tangle.DefaultGapLimit). Oldest objects are
	// evicted first; an evicted object's dedup bit is cleared and, when
	// the sync manager is armed, it is re-pulled.
	BacklogCap int
	// BacklogTTL evicts a parked object by age (simulation time) rather
	// than count: one older than the TTL is dropped on the node's next
	// arrival, even while its buffer is under BacklogCap. <= 0 disables
	// age-based eviction.
	BacklogTTL time.Duration
}

// withDefaults fills unset values. Only fields that are actually zero
// are defaulted: a user-set MinLatency survives an unset MaxLatency
// (the default MaxLatency is raised to meet it if needed), and inverted
// bounds are normalized by swapping.
func (p NetParams) withDefaults() NetParams {
	if p.Nodes <= 0 {
		p.Nodes = 16
	}
	if p.PeerDegree <= 0 {
		p.PeerDegree = 4
	}
	if p.PeerDegree >= p.Nodes {
		p.PeerDegree = p.Nodes - 1
	}
	if p.MinLatency < 0 {
		p.MinLatency = 0
	}
	if p.MaxLatency < 0 {
		p.MaxLatency = 0
	}
	switch {
	case p.MinLatency == 0 && p.MaxLatency == 0:
		p.MinLatency = 20 * time.Millisecond
		p.MaxLatency = 200 * time.Millisecond
	case p.MaxLatency == 0:
		p.MaxLatency = 200 * time.Millisecond
		if p.MaxLatency < p.MinLatency {
			p.MaxLatency = p.MinLatency
		}
	case p.MinLatency > p.MaxLatency:
		p.MinLatency, p.MaxLatency = p.MaxLatency, p.MinLatency
	}
	return p
}

// buildNetwork constructs the simulator, link model and gossip topology.
func buildNetwork(p NetParams) (*sim.Simulator, *sim.Network) {
	s := sim.New(p.Seed)
	links := sim.UniformLinks{
		MinLatency:  p.MinLatency,
		MaxLatency:  p.MaxLatency,
		BytesPerSec: p.BytesPerSec,
	}
	return s, sim.NewNetwork(s, links)
}

// ChainMetrics summarizes a blockchain network run from the observer
// node's perspective.
type ChainMetrics struct {
	// Duration is the simulated span.
	Duration time.Duration
	// BlocksOnMain is the main-chain length (genesis excluded).
	BlocksOnMain int
	// BlocksTotal counts every block produced, side chains included.
	BlocksTotal int
	// Orphaned counts blocks that ended up off the main chain — the
	// "discarded or orphaned" branches of Fig. 4.
	Orphaned int
	// OrphanRate is Orphaned / BlocksTotal.
	OrphanRate float64
	// Reorgs counts main-chain switches; MaxReorgDepth the deepest.
	Reorgs        int
	MaxReorgDepth int
	// ConfirmedTxs counts transactions on the main chain (coinbases and
	// the genesis allocation excluded).
	ConfirmedTxs int
	// TPS is ConfirmedTxs / Duration.
	TPS float64
	// PendingAtEnd is the observer's mempool backlog when the run ended
	// (§VI's pending-transaction figure).
	PendingAtEnd int
	// SubmittedTxs counts payment submissions attempted.
	SubmittedTxs int
	// RejectedTxs counts submissions no node accepted.
	RejectedTxs int
	// LedgerBytes is the observer's main-chain size (§V).
	LedgerBytes int
	// MeanBlockInterval is the observed average spacing of main blocks.
	MeanBlockInterval time.Duration
	// Propagation is the distribution of full-network block propagation
	// times (seconds).
	Propagation metrics.Histogram
	// MessagesSent and BytesSent are network totals.
	MessagesSent int
	BytesSent    int64
}

// CatchUpTrial empirically reproduces Nakamoto's attacker race (§IV-A):
// while the honest chain accumulates the z confirmation blocks the
// attacker mines privately in parallel; afterwards the attacker keeps
// going and wins if its private chain ever pulls level (Nakamoto's
// convention). Each successive block belongs to the attacker with
// probability q. Used to validate pow.CatchUpProbability by simulation.
func CatchUpTrial(rng *rand.Rand, q float64, z, maxSteps int) bool {
	honest, attacker := 0, 0
	for honest < z {
		if rng.Float64() < q {
			attacker++
		} else {
			honest++
		}
	}
	deficit := z - attacker
	if deficit <= 0 {
		return true
	}
	for step := 0; step < maxSteps; step++ {
		if rng.Float64() < q {
			deficit--
			if deficit == 0 {
				return true
			}
		} else {
			deficit++
		}
		// Hopeless deficits end early; the walk drifts away at rate
		// (1-2q) per step, so 200+ behind is effectively gone.
		if deficit > z+200 {
			return false
		}
	}
	return false
}

// EmpiricalCatchUp estimates the attacker-success probability over
// trials, the simulated counterpart of the analytic formula.
func EmpiricalCatchUp(rng *rand.Rand, q float64, z, trials int) float64 {
	if trials <= 0 {
		return 0
	}
	wins := 0
	for i := 0; i < trials; i++ {
		if CatchUpTrial(rng, q, z, 1_000_000) {
			wins++
		}
	}
	return float64(wins) / float64(trials)
}

// observedOrphanRate is a shared helper validating measured rates against
// the analytic expectation of pow.ExpectedOrphanRate.
func observedOrphanRate(m ChainMetrics) (measured, analytic float64) {
	measured = m.OrphanRate
	if m.Propagation.N() > 0 && m.MeanBlockInterval > 0 {
		delay := time.Duration(m.Propagation.Quantile(0.5) * float64(time.Second))
		analytic = pow.ExpectedOrphanRate(delay, m.MeanBlockInterval)
	}
	return measured, analytic
}
