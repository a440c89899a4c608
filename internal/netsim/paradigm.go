// The paradigm seam: one registry all four ledger simulations plug
// into, so the cross-paradigm experiments (throughput, scaling law,
// cold start) iterate a list instead of hand-rolling each network's
// construction. A ParadigmSpec names the paradigm, builds its network
// from shared knobs, and the returned ParadigmNet exposes the common
// surface every comparison needs: the NodeRuntime/Behavior seam,
// settlement submission, the sync counters, the canonical history
// stream, and a summary metrics view. Each network file registers its
// own spec (see the init functions in bitcoin.go, ethereum.go, nano.go
// and tangle.go); the registry orders specs explicitly so iteration
// order never depends on file names or init sequencing.
package netsim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// BuildOptions carries the cross-paradigm construction knobs a
// comparison experiment sweeps beyond NetParams; each Build maps them
// onto its network's native config and fills paradigm-specific settings
// with defaults.
type BuildOptions struct {
	// Accounts is the funded user population (<= 0 keeps the paradigm
	// default).
	Accounts int
}

// ParadigmMetrics is the cross-paradigm summary of one run — the
// least-common-denominator view comparison tables read. Each network's
// native metrics struct (ChainMetrics, NanoMetrics, TangleMetrics)
// remains the full-resolution surface.
type ParadigmMetrics struct {
	Duration time.Duration
	// Throughput is settled operations per second in the paradigm's
	// native unit: confirmed transactions (chains), settled transfers
	// (lattice), confirmed vertices (tangle).
	Throughput float64
	// Confirmed counts those settled operations; Pending what the
	// observer still holds unsettled at the cutoff.
	Confirmed int
	Pending   int
	// FinalityP50 is the paradigm's native first-confirmation latency
	// estimate in seconds: mean block interval for the chains, the p50
	// of the observer's confirm-latency histogram for the vote- and
	// coverage-based ledgers.
	FinalityP50 float64
	// MessagesSent and BytesSent count network traffic; LedgerBytes is
	// the observer's modeled storage footprint (§V).
	MessagesSent int
	BytesSent    int64
	LedgerBytes  int
}

// ParadigmNet is the common surface a built network exposes to
// comparison experiments. All four networks satisfy it through thin
// adapters over the network shell (the native Run methods return native
// metrics).
type ParadigmNet interface {
	// Sim, Net and Runtime expose the simulation substrate — Runtime is
	// the Behavior seam adversarial strategies install into.
	Sim() *sim.Simulator
	Net() *sim.Network
	Runtime() *NodeRuntime

	// Submit schedules one settlement operation.
	Submit(p workload.TimedPayment)
	// RunSpan drives the simulation to the cutoff and summarizes it.
	RunSpan(duration time.Duration) ParadigmMetrics

	// CanonicalLength is the observer's canonical-stream length: main
	// chain for the chains, account-ordered block stream for the
	// lattice, attachment-ordered vertex stream for the tangle.
	CanonicalLength() int

	// SyncStats reports the shared sync manager's counters.
	SyncStats() SyncStats
}

// ParadigmSpec registers one ledger paradigm with the seam.
type ParadigmSpec struct {
	// Name is the registry key ("bitcoin", "ethereum", "nano",
	// "tangle") — the spelling dltbench's -paradigm knob validates.
	Name string
	// Family tags which side of the paper's comparison the paradigm
	// belongs to ("blockchain" or "dag").
	Family string
	// Order fixes the registry iteration order explicitly.
	Order int
	// Build constructs a network from the shared knobs.
	Build func(NetParams, BuildOptions) (ParadigmNet, error)
}

var paradigmRegistry []ParadigmSpec

// registerParadigm adds a spec; each network file calls it from init.
func registerParadigm(spec ParadigmSpec) {
	paradigmRegistry = append(paradigmRegistry, spec)
}

// Paradigms returns the registered specs in their fixed Order.
func Paradigms() []ParadigmSpec {
	out := make([]ParadigmSpec, len(paradigmRegistry))
	copy(out, paradigmRegistry)
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// ParadigmNames returns the registered names in registry order — the
// legal values for paradigm-selection knobs.
func ParadigmNames() []string {
	specs := Paradigms()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// ParadigmByName finds a registered spec.
func ParadigmByName(name string) (ParadigmSpec, error) {
	for _, s := range Paradigms() {
		if s.Name == name {
			return s, nil
		}
	}
	return ParadigmSpec{}, fmt.Errorf("netsim: unknown paradigm %q (have %v)", name, ParadigmNames())
}

// ---- adapters -------------------------------------------------------

// bitcoinParadigm adapts BitcoinNet to the seam.
type bitcoinParadigm struct{ *BitcoinNet }

func (p bitcoinParadigm) Submit(tp workload.TimedPayment) { p.SubmitPayment(tp, 1) }

func (p bitcoinParadigm) RunSpan(d time.Duration) ParadigmMetrics {
	return chainSummary(p.Run(d))
}

func (p bitcoinParadigm) CanonicalLength() int {
	return len(p.Observer().Store().MainChain())
}

// ethereumParadigm adapts EthereumNet to the seam.
type ethereumParadigm struct{ *EthereumNet }

func (p ethereumParadigm) Submit(tp workload.TimedPayment) { p.SubmitPayment(tp, 1) }

func (p ethereumParadigm) RunSpan(d time.Duration) ParadigmMetrics {
	return chainSummary(p.Run(d))
}

func (p ethereumParadigm) CanonicalLength() int {
	return len(p.Observer().Store().MainChain())
}

// chainSummary maps ChainMetrics onto the common view.
func chainSummary(m ChainMetrics) ParadigmMetrics {
	return ParadigmMetrics{
		Duration:     m.Duration,
		Throughput:   m.TPS,
		Confirmed:    m.ConfirmedTxs,
		Pending:      m.PendingAtEnd,
		FinalityP50:  m.MeanBlockInterval.Seconds(),
		MessagesSent: m.MessagesSent, BytesSent: m.BytesSent,
		LedgerBytes: m.LedgerBytes,
	}
}

// nanoParadigm adapts NanoNet to the seam.
type nanoParadigm struct{ *NanoNet }

func (p nanoParadigm) Submit(tp workload.TimedPayment) { p.SubmitTransfer(tp) }

func (p nanoParadigm) RunSpan(d time.Duration) ParadigmMetrics {
	m := p.Run(d)
	return ParadigmMetrics{
		Duration:     m.Duration,
		Throughput:   m.TPS,
		Confirmed:    m.SettledAtObserver,
		Pending:      m.UnsettledAtEnd,
		FinalityP50:  m.ConfirmLatency.Quantile(0.5),
		MessagesSent: m.MessagesSent, BytesSent: m.BytesSent,
		LedgerBytes: m.LedgerBytes,
	}
}

func (p nanoParadigm) CanonicalLength() int { return p.Observer().BlockCount() }

// tangleParadigm adapts TangleNet to the seam.
type tangleParadigm struct{ *TangleNet }

func (p tangleParadigm) Submit(tp workload.TimedPayment) { p.SubmitTransfer(tp) }

func (p tangleParadigm) RunSpan(d time.Duration) ParadigmMetrics {
	m := p.Run(d)
	return ParadigmMetrics{
		Duration:     m.Duration,
		Throughput:   m.VPS,
		Confirmed:    m.ConfirmedAtObserver,
		Pending:      m.PendingAtEnd,
		FinalityP50:  m.ConfirmLatency.Quantile(0.5),
		MessagesSent: m.MessagesSent, BytesSent: m.BytesSent,
		LedgerBytes: m.LedgerBytes,
	}
}

func (p tangleParadigm) CanonicalLength() int { return p.Observer().VertexCount() }
