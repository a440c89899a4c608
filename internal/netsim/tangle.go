// The cooperative-tangle network simulation: the third ledger paradigm
// of the comparison. Unlike the chains (leaders win block production)
// and the block-lattice (owners append, representatives vote), the
// tangle has no privileged role at all — every payment is a vertex that
// approves two earlier vertices, and confirmation is cumulative
// coverage of later arrivals (internal/tangle). Gossip, cold start and
// adversarial behaviors run through the same network shell, NodeRuntime/
// Behavior seam and sync manager as the other networks; tip selection is
// the tangle's own extension point on that seam (TipSelector), which is
// where the parasite-chain attack plugs in.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tangle"
	"repro/internal/workload"
)

// TangleConfig parameterizes a cooperative-tangle network.
type TangleConfig struct {
	Net NetParams
	// Accounts is the issuing population; account i is operated by node
	// i mod Nodes, and account 0 signs the genesis vertex.
	Accounts int
	// Supply is the value the genesis vertex carries.
	Supply uint64
	// ConfirmWeight is the cumulative-coverage threshold: a vertex is
	// confirmed once that many later vertices sit in its future cone
	// (default 4) — the cooperative analogue of §IV's depth rules.
	ConfirmWeight int
}

func (c TangleConfig) withDefaults() TangleConfig {
	c.Net = c.Net.withDefaults()
	if c.Accounts <= 0 {
		c.Accounts = 16
	}
	if c.Supply == 0 {
		c.Supply = 1 << 40
	}
	if c.ConfirmWeight <= 0 {
		c.ConfirmWeight = 4
	}
	return c
}

// TipSelector is the tangle's tip-selection hook on the Behavior seam:
// a node's behavior that also implements TipSelector overrides which
// two vertices a locally issued payment approves. Returning ok=false
// falls back to the honest uniform-tip rule. view is the issuing node's
// own replica — selectors read it, never mutate it.
type TipSelector interface {
	SelectTangleTips(node sim.NodeID, view *tangle.Tangle, rng *rand.Rand) (a, b hashx.Hash, ok bool)
}

// TangleMetrics summarizes a tangle run from the observer (node 0).
type TangleMetrics struct {
	Duration time.Duration
	// TransfersSubmitted counts payment requests; VerticesIssued the
	// vertices actually created and attached at their issuer.
	TransfersSubmitted int
	VerticesIssued     int
	// ConfirmedAtObserver counts vertices past the coverage threshold at
	// node 0 (genesis excluded — it is born confirmed).
	ConfirmedAtObserver int
	// PendingAtEnd is the observer's attached-but-unconfirmed count —
	// coverage the DAG's frontier has not yet accumulated.
	PendingAtEnd int
	// TipsAtEnd is the observer's unapproved-vertex count.
	TipsAtEnd int
	// VPS counts confirmed vertices per second at the observer — the
	// tangle's native throughput unit (one transaction per vertex).
	VPS float64
	// ConfirmLatency is the distribution of vertex-creation→coverage
	// delays at the observer, in seconds (§IV confirmation).
	ConfirmLatency metrics.Histogram
	MessagesSent   int
	BytesSent      int64
	// LedgerBytes is the observer's modeled storage footprint (§V).
	LedgerBytes int
}

// tangleNode is one full node: its replica of the DAG.
type tangleNode struct {
	id sim.NodeID
	tg *tangle.Tangle
}

// TangleNet is a running cooperative-tangle network simulation.
type TangleNet struct {
	netShell
	cfg   TangleConfig
	nodes []*tangleNode
	ring  *keys.Ring

	seqs    []uint64 // per-account issuer counters
	metrics TangleMetrics
}

// NewTangle builds the network: every node starts from the identical
// genesis vertex signed by account 0, and all share one vertex catalog.
func NewTangle(cfg TangleConfig) (*TangleNet, error) {
	cfg = cfg.withDefaults()
	s, net := buildNetwork(cfg.Net)
	ring := keys.NewRing("tangle-net", cfg.Accounts)
	genesis := tangle.Genesis(ring.Pair(0), cfg.Supply)

	// Node 0 holds the network's one vertex catalog; every other node is
	// a replica over it and owns only its own state.
	first, err := tangle.New(genesis, cfg.ConfirmWeight)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	n := &TangleNet{
		cfg:  cfg,
		ring: ring,
		seqs: make([]uint64, cfg.Accounts),
	}
	n.netShell.init(s, net, cfg.Net.Nodes, first.Index(), n)
	n.metrics.ConfirmLatency.SetBudget(cfg.Net.SampleBudget)
	for i := 0; i < cfg.Net.Nodes; i++ {
		tg := first
		if i > 0 {
			tg = first.Replica()
		}
		node := &tangleNode{tg: tg}
		node.id = n.rt.AddNode(n.handlerFor(node))
		n.nodes = append(n.nodes, node)
		bindBacklog(&n.netShell, node.id, tg.Parked(), cfg.Net)
	}
	net.SetPeers(sim.RandomPeers(s.Rand(), cfg.Net.Nodes, cfg.Net.PeerDegree))
	return n, nil
}

// Observer returns node 0's replica.
func (n *TangleNet) Observer() *tangle.Tangle { return n.nodes[0].tg }

// has, attachedIDs, object and canonical are the tangle's history view: a node's
// attached vertices and its attachment-ordered vertex stream, a
// topological order by construction.
func (n *TangleNet) has(node sim.NodeID, h hashx.Hash) bool { return n.nodes[node].tg.Has(h) }

func (n *TangleNet) attachedIDs(node sim.NodeID) []uint64 { return n.nodes[node].tg.Attached() }

func (n *TangleNet) object(node sim.NodeID, h hashx.Hash) (any, int, bool) {
	v, ok := n.nodes[node].tg.Get(h)
	if !ok {
		return nil, 0, false
	}
	return v, v.EncodedSize(), true
}

func (n *TangleNet) canonical(node sim.NodeID) (int, func(int) (any, int)) {
	tg := n.nodes[node].tg
	return tg.VertexCount(), func(i int) (any, int) {
		v := tg.VertexAt(i)
		return v, v.EncodedSize()
	}
}

// handlerFor dispatches gossip messages.
func (n *TangleNet) handlerFor(node *tangleNode) sim.Handler {
	return func(from sim.NodeID, payload any, size int) {
		switch msg := payload.(type) {
		case *tangle.Vertex:
			n.receive(node.id, from, n.objectID(msg), msg, size)
		default:
			n.serve(node.id, from, payload)
		}
	}
}

// apply is the tangle's verdict on a first-seen vertex: attach it.
// Gapped vertices park inside the replica and still relay so peers ahead
// of this node catch up, naming the missing parent; invalid ones are
// not relayed.
func (n *TangleNet) apply(node sim.NodeID, _ int32, obj any) (bool, hashx.Hash) {
	nd := n.nodes[node]
	res := nd.tg.Attach(obj.(*tangle.Vertex))
	switch res.Status {
	case tangle.Rejected:
		return false, hashx.Zero
	case tangle.GapParent:
		return true, res.Missing
	case tangle.Accepted:
		n.noteConfirmed(nd, res.Confirmed)
	}
	return true, hashx.Zero
}

// noteConfirmed records observer-side confirmations.
func (n *TangleNet) noteConfirmed(node *tangleNode, confirmed []tangle.VertexID) {
	if node != n.nodes[0] {
		return
	}
	for _, id := range confirmed {
		if n.observeConfirmed(int32(id), &n.metrics.ConfirmLatency) {
			n.metrics.ConfirmedAtObserver++
		}
	}
}

// selectTips picks the two parents for a vertex node is about to issue:
// the node's TipSelector behavior when one is installed and engaged,
// the honest uniform-tip rule otherwise.
func (n *TangleNet) selectTips(node *tangleNode) (hashx.Hash, hashx.Hash) {
	if sel, ok := n.rt.BehaviorOf(node.id).(TipSelector); ok {
		if a, b, engaged := sel.SelectTangleTips(node.id, node.tg, n.rt.sim.Rand()); engaged {
			return a, b
		}
	}
	return node.tg.SelectTips(n.rt.sim.Rand())
}

// publish mints, self-attaches and floods a locally created vertex —
// unless the issuer's behavior withholds it (the parasite chain keeps
// its sub-tangle private until release).
func (n *TangleNet) publish(node *tangleNode, v *tangle.Vertex) {
	id := n.mint(node.id, v)
	res := node.tg.Attach(v)
	if res.Status == tangle.Accepted {
		n.noteConfirmed(node, res.Confirmed)
	}
	n.flood(node.id, id, v, v.EncodedSize())
}

// SubmitTransfer schedules a payment: at p.At the sender's owner node
// selects two tips from its own view, issues the signed vertex and
// floods it.
func (n *TangleNet) SubmitTransfer(p workload.TimedPayment) {
	n.rt.sim.At(p.At, func() {
		n.metrics.TransfersSubmitted++
		if p.From < 0 || p.From >= n.cfg.Accounts {
			return
		}
		node := n.nodes[p.From%n.cfg.Net.Nodes]
		pa, pb := n.selectTips(node)
		n.seqs[p.From]++
		v := tangle.NewVertex(n.ring.Pair(p.From), n.seqs[p.From], pa, pb, n.ring.Addr(p.To%n.cfg.Accounts), p.Amount)
		n.metrics.VerticesIssued++
		n.publish(node, v)
	})
}

// Run drives the simulation up to the cutoff and returns the metrics.
func (n *TangleNet) Run(duration time.Duration) TangleMetrics {
	n.rt.sim.RunUntil(duration)
	return n.collect(duration)
}

// RunWithTransfers submits the stream then runs.
func (n *TangleNet) RunWithTransfers(duration time.Duration, transfers []workload.TimedPayment) TangleMetrics {
	for _, p := range transfers {
		n.SubmitTransfer(p)
	}
	return n.Run(duration)
}

func (n *TangleNet) collect(duration time.Duration) TangleMetrics {
	obs := n.nodes[0]
	m := &n.metrics
	m.Duration = duration
	// Genesis is born confirmed and excluded from the confirmed count.
	m.PendingAtEnd = obs.tg.VertexCount() - obs.tg.ConfirmedCount()
	m.TipsAtEnd = obs.tg.TipCount()
	if duration > 0 {
		m.VPS = float64(m.ConfirmedAtObserver) / duration.Seconds()
	}
	m.LedgerBytes = obs.tg.LedgerBytes()
	ns := n.rt.net.Stats()
	m.MessagesSent = ns.MessagesSent
	m.BytesSent = ns.BytesSent
	return *m
}

// ConfirmedIssuedBy counts confirmed observer-side vertices that the
// given node issued — the adversary-success measure E21's parasite rows
// report.
func (n *TangleNet) ConfirmedIssuedBy(node int) int {
	count := 0
	n.confirmed.Each(func(id uint32) {
		if n.makerOf(int32(id)) == int32(node) {
			count++
		}
	})
	return count
}

// ParasiteChainBehavior grows a hidden sub-tangle: while hiding, the
// attacker's issued vertices are withheld from the network (OnProduce)
// and chained onto each other instead of the honest tips — the first
// hidden vertex anchors into the attacker's current honest view, every
// later one approves its predecessor twice. When the chain reaches
// ReleaseDepth the whole sub-tangle floods at once. Under pure
// cumulative-weight confirmation the released chain carries its own
// coverage — each hidden vertex already sits in the future cone of its
// ancestors — which is exactly the weakness parasite chains exploit and
// the reason production tangles bias tip selection instead of counting
// weight alone (E21's adversary rows measure it).
type ParasiteChainBehavior struct {
	HonestBehavior
	net  *TangleNet
	node sim.NodeID
	// ReleaseDepth is the hidden-chain length that triggers release.
	ReleaseDepth int

	hidden   []*tangle.Vertex
	lastTip  hashx.Hash
	released bool
}

// Withheld counts hidden vertices not yet released.
func (b *ParasiteChainBehavior) Withheld() int {
	if b.released {
		return 0
	}
	return len(b.hidden)
}

// Released reports whether the sub-tangle has been published.
func (b *ParasiteChainBehavior) Released() bool { return b.released }

// SelectTangleTips chains hidden vertices onto each other; the first
// one anchors at the honest tips, and after release the attacker
// behaves honestly again.
func (b *ParasiteChainBehavior) SelectTangleTips(_ sim.NodeID, view *tangle.Tangle, rng *rand.Rand) (hashx.Hash, hashx.Hash, bool) {
	if b.released {
		return hashx.Zero, hashx.Zero, false
	}
	if len(b.hidden) == 0 {
		a, c := view.SelectTips(rng)
		return a, c, true
	}
	return b.lastTip, b.lastTip, true
}

// OnProduce withholds the vertex while the chain is hiding, releasing
// the whole sub-tangle when it reaches ReleaseDepth.
func (b *ParasiteChainBehavior) OnProduce(_ sim.NodeID, block any) bool {
	if b.released {
		return true
	}
	v, ok := block.(*tangle.Vertex)
	if !ok {
		return true
	}
	b.hidden = append(b.hidden, v)
	b.lastTip = v.Hash()
	if len(b.hidden) >= b.ReleaseDepth {
		// Defer the flood one event so the release happens outside the
		// issuing call path, mirroring the selfish miner's release.
		b.released = true
		release := b.hidden
		b.hidden = nil
		b.net.rt.sim.After(0, func() {
			node := b.net.nodes[b.node]
			for _, hv := range release {
				b.net.rt.Relay(node.id, hv, hv.EncodedSize())
			}
		})
	}
	return false
}

// InstallParasiteChain installs the parasite-chain adversary on a node:
// payments issued by that node grow the hidden sub-tangle until it is
// releaseDepth vertices long, then flood at once.
func (n *TangleNet) InstallParasiteChain(node, releaseDepth int) *ParasiteChainBehavior {
	if releaseDepth < 1 {
		releaseDepth = 1
	}
	b := &ParasiteChainBehavior{net: n, node: n.nodes[node].id, ReleaseDepth: releaseDepth}
	n.rt.SetBehavior(n.nodes[node].id, b)
	return b
}

// The paradigm-seam registration (paradigm.go): the cooperative tangle
// is the third ledger of the comparison — leaderless settlement with
// coverage-based confirmation.
func init() {
	registerParadigm(ParadigmSpec{
		Name: "tangle", Family: "dag", Order: 3,
		Build: func(np NetParams, o BuildOptions) (ParadigmNet, error) {
			net, err := NewTangle(TangleConfig{Net: np, Accounts: o.Accounts})
			if err != nil {
				return nil, err
			}
			return tangleParadigm{net}, nil
		},
	})
}
