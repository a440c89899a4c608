package main

// One leg is one simulated network: build it (set-up region), drive it
// to its cutoff (run region), read its public counters, then judge
// convergence. Every constructor is the public netsim one at Workers 1,
// default heap queue and Shards unset; the network seed is a constant of
// the leg, so -seed reaches the ledgers only through the generated
// payments.

import (
	"math/rand"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// env carries what a leg needs from the invocation.
type env struct {
	seed  int64
	scale float64
	tr    *tracer
}

// count scales an operation or node count, never below floor.
func (e *env) count(base, floor int) int {
	n := int(float64(base)*e.scale + 0.5)
	if n < floor {
		n = floor
	}
	return n
}

// dur scales a simulated span, never below floor.
func (e *env) dur(base, floor time.Duration) time.Duration {
	d := time.Duration(float64(base) * e.scale)
	if d < floor {
		d = floor
	}
	return d
}

// load describes one leg's open-loop client population: ops Poisson
// arrivals inside [0, span) of simulated time.
type load struct {
	seedOff   int64
	accounts  int
	ops       int
	span      time.Duration
	maxAmount uint64
	// keep filters payments (fault-resync drops the cold node's accounts).
	keep func(workload.Payment) bool
}

// schedule draws the leg's payments from workload.Payments. It takes the
// first ops+1 arrivals of a Poisson stream and rescales their times so
// the extra one lands on span: arrival times divided by a later arrival
// time are uniform order statistics, so the result is exactly a Poisson
// process on [0, span) conditioned on ops arrivals. The count is then
// the same under every seed — host work per run does not wander with
// the seed — while senders, receivers, amounts and gaps all do.
func (ld load) schedule(seed int64) []workload.TimedPayment {
	rng := rand.New(rand.NewSource(seed<<16 + ld.seedOff))
	rate := float64(ld.ops) / ld.span.Seconds()
	var kept []workload.TimedPayment
	for window := 2 * ld.span; len(kept) <= ld.ops; window *= 2 {
		kept = kept[:0]
		for _, p := range workload.Payments(rng, workload.Config{
			Accounts: ld.accounts, Rate: rate, Duration: window, MaxAmount: ld.maxAmount,
		}) {
			if ld.keep == nil || ld.keep(p.Payment) {
				kept = append(kept, p)
			}
		}
	}
	stretch := float64(ld.span) / float64(kept[ld.ops].At)
	kept = kept[:ld.ops]
	for i := range kept {
		kept[i].At = time.Duration(float64(kept[i].At) * stretch)
	}
	return kept
}

// plan is what a workload fixes for one leg besides the network itself.
type plan struct {
	load load
	// horizon is the simulated cutoff the leg runs to.
	horizon time.Duration
	// coldNode >= 0 detaches that node from t=0 and rejoins it at
	// rejoinAt, range-pulling the canonical stream (E20).
	coldNode int
	rejoinAt time.Duration
	// faults scripts partitions and loss (bitcoin and nano legs only:
	// FaultSchedule has no tangle arm).
	faults *netsim.FaultSchedule
}

// noCold marks a plan without a cold node.
const noCold = -1

// legResult is everything one leg reports. Host quantities are filled
// by runLeg; simulated ones by the leg's collect and check.
type legResult struct {
	name string

	buildS, runS float64
	// cal is the reference loop's duration just before the leg's set-up
	// and just after its run.
	cal        [2]float64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
	liveHeap   uint64 // traced rounds only

	horizon     time.Duration
	events      uint64
	net         sim.NetStats
	sync        netsim.SyncStats
	submitted   int
	confirmed   int
	unfunded    int // submissions no node accepted
	coldSyncs   int
	coldMissed  int
	catchup     time.Duration
	history     int // canonical stream length the cold node had to pull
	diverged    bool
	finalityP50 float64 // seconds
	ledgerBytes int

	chain  *netsim.ChainMetrics
	nano   *netsim.NanoMetrics
	tangle *netsim.TangleMetrics

	harvest harvest
}

// running is a built leg, ready for its first simulated event.
type running struct {
	run func()
	// collect reads the counters as they stand at the cutoff.
	collect func(r *legResult)
	// check drains the queue where the ledger goes quiet, judges
	// convergence, reads the sync manager's final counters and, on a
	// traced round, harvests replay artifacts.
	check func(r *legResult, harvesting bool)
}

// leg names a network and how to build it.
type leg struct {
	name  string
	build func(e *env) (*running, error)
}

// simNet is the part of the four networks the harness reads directly.
type simNet interface {
	Sim() *sim.Simulator
	Net() *sim.Network
	SyncStats() netsim.SyncStats
	ScheduleColdStart(node int, detachAt, rejoinAt time.Duration, batch int)
	ColdSyncDone(node int) (time.Duration, bool)
}

func armCold(n simNet, p plan) {
	if p.coldNode >= 0 {
		n.ScheduleColdStart(p.coldNode, 0, p.rejoinAt, 0) // 0: the manager's default window
	}
}

// setUp runs the three set-up spans every leg shares: build the
// network, draw the schedule, submit it and arm the leg's faults.
func setUp(e *env, p plan, build func() error, submit func(workload.TimedPayment), arm func()) error {
	var err error
	e.tr.span("build", func() { err = build() })
	if err != nil {
		return err
	}
	var pays []workload.TimedPayment
	e.tr.span("generate", func() { pays = p.load.schedule(e.seed) })
	e.tr.span("submit", func() {
		for _, tp := range pays {
			submit(tp)
		}
		arm()
	})
	return nil
}

func collectCutoff(r *legResult, n simNet, p plan) {
	r.horizon = p.horizon
	r.events = n.Sim().EventsRun()
	r.net = n.Net().Stats()
	r.submitted = p.load.ops
}

func collectSync(r *legResult, n simNet, p plan) {
	r.sync = n.SyncStats()
	if p.coldNode < 0 {
		return
	}
	r.coldSyncs = 1
	if took, ok := n.ColdSyncDone(p.coldNode); ok {
		r.catchup = took
	} else {
		r.coldMissed = 1
	}
}

// bitcoinLeg runs a UTXO proof-of-work chain.
func bitcoinLeg(name string, fee uint64, mk func(e *env) (netsim.BitcoinConfig, plan)) leg {
	return leg{name: name, build: func(e *env) (*running, error) {
		cfg, p := mk(e)
		var net *netsim.BitcoinNet
		err := setUp(e, p,
			func() (err error) { net, err = netsim.NewBitcoin(cfg); return },
			func(tp workload.TimedPayment) { net.SubmitPayment(tp, fee) },
			func() {
				armCold(net, p)
				if p.faults != nil {
					p.faults.ApplyToBitcoin(net)
				}
			})
		if err != nil {
			return nil, err
		}
		var m netsim.ChainMetrics
		return &running{
			run: func() { m = net.Run(p.horizon) },
			collect: func(r *legResult) {
				collectCutoff(r, net, p)
				collectChain(r, &m)
				r.history = int(net.Observer().Height())
			},
			check: func(r *legResult, harvesting bool) {
				// Mining never stops, so a chain has no quiescent state:
				// tips are compared at the cutoff with E14's two-block
				// tolerance for blocks still in flight.
				r.diverged = !net.ConvergedWithin(2)
				collectSync(r, net, p)
				if harvesting {
					r.harvest.utxo = harvestUTXO(net, cfg)
				}
			},
		}, nil
	}}
}

// ethereumLeg runs an account-model chain under PoW or PoS.
func ethereumLeg(name string, mk func(e *env) (netsim.EthereumConfig, plan)) leg {
	return leg{name: name, build: func(e *env) (*running, error) {
		cfg, p := mk(e)
		var net *netsim.EthereumNet
		err := setUp(e, p,
			func() (err error) { net, err = netsim.NewEthereum(cfg); return },
			func(tp workload.TimedPayment) { net.SubmitPayment(tp, 1) },
			func() {})
		if err != nil {
			return nil, err
		}
		var m netsim.ChainMetrics
		return &running{
			run: func() { m = net.Run(p.horizon) },
			collect: func(r *legResult) {
				collectCutoff(r, net, p)
				collectChain(r, &m)
				r.history = int(net.Observer().Height())
			},
			check: func(r *legResult, harvesting bool) {
				r.diverged = !net.ConvergedWithin(2)
				collectSync(r, net, p)
				if harvesting {
					r.harvest.account = harvestAccount(net, cfg)
				}
			},
		}, nil
	}}
}

func collectChain(r *legResult, m *netsim.ChainMetrics) {
	r.chain = m
	r.confirmed = m.ConfirmedTxs
	// The schedule ends inside the horizon, so every payment's arrival
	// fired; one that did not would count as failed here too.
	r.unfunded = m.RejectedTxs + (r.submitted - m.SubmittedTxs)
	r.finalityP50 = m.MeanBlockInterval.Seconds()
	r.ledgerBytes = m.LedgerBytes
}

// nanoLeg runs a block-lattice with ORV.
func nanoLeg(name string, mk func(e *env) (netsim.NanoConfig, plan)) leg {
	return leg{name: name, build: func(e *env) (*running, error) {
		cfg, p := mk(e)
		cfg.Workers = 1
		var net *netsim.NanoNet
		err := setUp(e, p,
			func() (err error) { net, err = netsim.NewNano(cfg); return },
			func(tp workload.TimedPayment) { net.SubmitTransfer(tp) },
			func() {
				armCold(net, p)
				if p.faults != nil {
					p.faults.ApplyToNano(net)
				}
			})
		if err != nil {
			return nil, err
		}
		var m netsim.NanoMetrics
		return &running{
			run: func() { m = net.Run(p.horizon) },
			collect: func(r *legResult) {
				collectCutoff(r, net, p)
				r.nano = &m
				r.confirmed = m.SettledAtObserver
				r.unfunded = r.submitted - m.SendsCreated
				r.finalityP50 = m.ConfirmLatency.Quantile(0.5)
				r.ledgerBytes = m.LedgerBytes
				r.history = net.Observer().BlockCount()
			},
			check: func(r *legResult, harvesting bool) {
				net.Sim().Run(0)
				r.diverged = !net.LatticeConverged()
				collectSync(r, net, p)
				if harvesting {
					r.harvest.lattice = harvestLattice(net, cfg)
				}
			},
		}, nil
	}}
}

// tangleLeg runs a cooperative tangle.
func tangleLeg(name string, mk func(e *env) (netsim.TangleConfig, plan)) leg {
	return leg{name: name, build: func(e *env) (*running, error) {
		cfg, p := mk(e)
		var net *netsim.TangleNet
		err := setUp(e, p,
			func() (err error) { net, err = netsim.NewTangle(cfg); return },
			func(tp workload.TimedPayment) { net.SubmitTransfer(tp) },
			func() { armCold(net, p) })
		if err != nil {
			return nil, err
		}
		var m netsim.TangleMetrics
		return &running{
			run: func() { m = net.Run(p.horizon) },
			collect: func(r *legResult) {
				collectCutoff(r, net, p)
				r.tangle = &m
				r.confirmed = m.ConfirmedAtObserver
				r.unfunded = r.submitted - m.VerticesIssued
				r.finalityP50 = m.ConfirmLatency.Quantile(0.5)
				r.ledgerBytes = m.LedgerBytes
				r.history = net.Observer().VertexCount()
			},
			check: func(r *legResult, harvesting bool) {
				// Only the observer's replica is public: at quiescence it
				// must hold every issued vertex (plus genesis) with
				// nothing parked, and the cold node's pull must be done.
				net.Sim().Run(0)
				obs := net.Observer()
				r.diverged = obs.VertexCount() != m.VerticesIssued+1 || obs.ParkedCount() != 0
				collectSync(r, net, p)
				if harvesting {
					r.harvest.tangle = harvestTangle(net, cfg)
				}
			},
		}, nil
	}}
}
