// The shared node-runtime layer: every network simulation used to
// hand-roll node structs, handler dispatch, publish/relay plumbing and
// metric collection once per network. NodeRuntime owns that lifecycle
// once — node registration, inbound dispatch, peer-filtered relay,
// unicast and broadcast — and threads every interaction through a
// per-node Behavior, the seam where adversarial strategies (eclipse,
// selfish mining, vote withholding, parasite chains) plug in without
// touching the protocol code. With every node on the honest pass-through
// the runtime reproduces the historical event sequence byte for byte.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/chain"
	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/sim"
)

// Behavior customizes one node's interaction with the network. Every
// interception point defaults to honest pass-through (HonestBehavior);
// adversarial strategies override the points they need:
//
//   - FilterPeers rewrites the peer list a relay fans out to.
//   - OnInbound vets a delivered message; false drops it unseen.
//   - OnOutbound vets one send; false suppresses that delivery.
//   - OnProduce vets a locally produced block; false withholds it from
//     the network (the producer's own ledger keeps it — a private chain).
//   - OnVote vets a consensus vote this node is about to cast; false
//     withholds it entirely (not even tallied locally).
//
// Behaviors run inside the deterministic simulation loop: they must not
// draw randomness outside the simulator's rng or mutate other nodes.
type Behavior interface {
	FilterPeers(node sim.NodeID, peers []sim.NodeID) []sim.NodeID
	OnInbound(node, from sim.NodeID, payload any, size int) bool
	OnOutbound(node, to sim.NodeID, payload any, size int) bool
	OnProduce(node sim.NodeID, block any) bool
	OnVote(node sim.NodeID, vote any) bool
}

// HonestBehavior is the protocol-following default: every hook passes
// through. Custom behaviors embed it and override only the points they
// intercept.
type HonestBehavior struct{}

// FilterPeers returns the peer list unchanged.
func (HonestBehavior) FilterPeers(_ sim.NodeID, peers []sim.NodeID) []sim.NodeID { return peers }

// OnInbound accepts every delivery.
func (HonestBehavior) OnInbound(_, _ sim.NodeID, _ any, _ int) bool { return true }

// OnOutbound allows every send.
func (HonestBehavior) OnOutbound(_, _ sim.NodeID, _ any, _ int) bool { return true }

// OnProduce publishes every produced block.
func (HonestBehavior) OnProduce(_ sim.NodeID, _ any) bool { return true }

// OnVote casts every vote.
func (HonestBehavior) OnVote(_ sim.NodeID, _ any) bool { return true }

// BehaviorStats counts what the installed behaviors suppressed — the
// stat hook experiments read to report an attack's footprint.
type BehaviorStats struct {
	// InboundDropped counts deliveries a receiver's behavior discarded.
	InboundDropped int
	// OutboundDropped counts sends a sender's behavior suppressed.
	OutboundDropped int
	// BlocksWithheld counts produced blocks kept private (OnProduce).
	BlocksWithheld int
	// VotesWithheld counts consensus votes never cast (OnVote).
	VotesWithheld int
}

// NodeRuntime owns the per-node lifecycle every simulation shares: node
// registration and handler dispatch, behavior-mediated relay/unicast/
// broadcast, and the behavior stat counters. One runtime serves one
// network simulation.
//
// A send of a catalog object to a node with no behavior that already
// holds it (holder, the network shell) is counted, not scheduled
// (sim.Network.SendDuplicate): its delivery would end at the receiver's
// first-seen bit. Each node's latest elided arrival is kept, so that a
// behavior installed while one is still in flight, which would have seen
// that delivery, fails loudly instead of silently changing the run.
type NodeRuntime struct {
	sim   *sim.Simulator
	net   *sim.Network
	nodes []runtimeNode
	stats BehaviorStats
	// holder is the network shell, which knows what each node holds.
	holder interface {
		holds(to sim.NodeID, id int32) bool
	}
}

// runtimeNode is the runtime's state for one node.
type runtimeNode struct {
	behavior   Behavior      // nil = honest (zero-overhead fast path)
	lastElided time.Duration // latest elided arrival, -1 while none
}

// newNodeRuntime wraps a simulator and network in a runtime.
func newNodeRuntime(s *sim.Simulator, net *sim.Network) *NodeRuntime {
	return &NodeRuntime{sim: s, net: net}
}

// Stats returns a snapshot of the behavior counters.
func (r *NodeRuntime) Stats() BehaviorStats { return r.stats }

// AddNode registers a node whose deliveries are vetted by its behavior
// before reaching dispatch. The returned id equals the node's index in
// registration order.
func (r *NodeRuntime) AddNode(dispatch sim.Handler) sim.NodeID {
	id := r.net.AddNode(nil)
	r.nodes = append(r.nodes, runtimeNode{lastElided: -1})
	r.net.SetHandler(id, func(from sim.NodeID, payload any, size int) {
		if b := r.nodes[id].behavior; b != nil && !b.OnInbound(id, from, payload, size) {
			r.stats.InboundDropped++
			return
		}
		dispatch(from, payload, size)
	})
	return id
}

// SetBehavior installs (or, with nil, removes) a node's behavior. It
// panics when b is non-nil and a delivery to the node was elided and may
// not have arrived yet: the behavior would have seen it. A node that gets
// a behavior mid-run must carry one from the start (reserve).
func (r *NodeRuntime) SetBehavior(id sim.NodeID, b Behavior) {
	if int(id) < len(r.nodes) {
		if at := r.nodes[id].lastElided; b != nil && at >= r.sim.Now() {
			panic(fmt.Sprintf("netsim: behavior installed on node %d at %v with an elided delivery arriving at %v", id, r.sim.Now(), at))
		}
		r.nodes[id].behavior = b
	}
}

// reserve gives a node that will get a behavior mid-run the honest
// pass-through until then, so no delivery to it is ever elided.
func (r *NodeRuntime) reserve(id sim.NodeID) {
	if r.BehaviorOf(id) == nil {
		r.SetBehavior(id, HonestBehavior{})
	}
}

// BehaviorOf returns a node's installed behavior (nil = honest).
func (r *NodeRuntime) BehaviorOf(id sim.NodeID) Behavior {
	if int(id) < len(r.nodes) {
		return r.nodes[id].behavior
	}
	return nil
}

// send delivers one message through the sender's outbound hook. id is
// the catalog id of the object the payload carries, 0 for any other
// message; a receiver with no behavior that already holds that object
// gets the message counted, not scheduled. The BehaviorOf lookup
// tolerates nodes registered directly on the network (outside AddNode):
// they simply have no behavior.
func (r *NodeRuntime) send(from, to sim.NodeID, payload any, size int, id int32) {
	if b := r.BehaviorOf(from); b != nil && !b.OnOutbound(from, to, payload, size) {
		r.stats.OutboundDropped++
		return
	}
	if id != 0 && int(to) < len(r.nodes) && r.nodes[to].behavior == nil && r.holder.holds(to, id) {
		if at, ok := r.net.SendDuplicate(from, to, payload, size); ok {
			r.nodes[to].lastElided = max(r.nodes[to].lastElided, at)
		}
		return
	}
	r.net.Send(from, to, payload, size)
}

// Unicast sends one message to one node through the outbound hook.
func (r *NodeRuntime) Unicast(from, to sim.NodeID, payload any, size int) {
	r.send(from, to, payload, size, 0)
}

// Relay fans a message out along the sender's behavior-filtered peer
// list — the gossip primitive every network floods its objects with.
func (r *NodeRuntime) Relay(from sim.NodeID, payload any, size int) {
	r.relay(from, payload, size, 0)
}

// relay is Relay for a payload carrying catalog object id (0 for none).
func (r *NodeRuntime) relay(from sim.NodeID, payload any, size int, id int32) {
	peers := r.net.Peers(from)
	if b := r.BehaviorOf(from); b != nil {
		peers = b.FilterPeers(from, peers)
	}
	for _, p := range peers {
		r.send(from, p, payload, size, id)
	}
}

// Broadcast sends a message from one node directly to every other node
// in index order — the idealized dissemination votes and post-fault
// catch-up exchanges use.
func (r *NodeRuntime) Broadcast(from sim.NodeID, payload any, size int) {
	r.broadcast(from, payload, size, 0)
}

// broadcast is Broadcast for a payload carrying catalog object id (0 for
// none).
func (r *NodeRuntime) broadcast(from sim.NodeID, payload any, size int, id int32) {
	for i := 0; i < r.net.NumNodes(); i++ {
		if sim.NodeID(i) != from {
			r.send(from, sim.NodeID(i), payload, size, id)
		}
	}
}

// voteAllowed consults the voter's behavior for a consensus vote; false
// means the vote is withheld entirely.
func (r *NodeRuntime) voteAllowed(node sim.NodeID, vote any) bool {
	if b := r.BehaviorOf(node); b != nil && !b.OnVote(node, vote) {
		r.stats.VotesWithheld++
		return false
	}
	return true
}

// chainLedger is the ledger surface the chain-side runtime drives; both
// utxo.Ledger (Bitcoin) and account.Ledger (Ethereum) satisfy it — the
// two chain networks differ only in ledger semantics, never in gossip,
// production or measurement plumbing.
type chainLedger interface {
	ProcessBlock(*chain.Block) (chain.AddResult, error)
	BuildBlock(proposer keys.Address, now time.Duration) *chain.Block
	BuildBlockOn(parent hashx.Hash, proposer keys.Address, now time.Duration) (*chain.Block, error)
	Height() uint64
	Store() *chain.Store
	PoolLen() int
	LedgerBytes() int
}

// chainRuntime is the node-runtime core the two chain networks share
// (BitcoinNet and EthereumNet embed it): the block apply verdict with
// reach/propagation tracking, block production, payment-submission
// accounting, and metric collection from the observer (node 0). Gossip,
// provenance and post-fault catch-up are the shell's.
type chainRuntime struct {
	netShell
	nodes []chainLedger

	// reach counts the nodes each block has reached, indexed by catalog
	// block id.
	reach []int32

	metrics ChainMetrics
	// Mean block interval needs only the span of production times, so the
	// old append-per-block slice collapses to first/last/count.
	firstBlockAt time.Duration
	lastBlockAt  time.Duration
	blockCount   int

	// confirmedTxs maps the observer's (txsOnMain, blocksOnMain) to the
	// confirmed-transaction count — Bitcoin discounts coinbases and the
	// genesis allocation, Ethereum counts main-chain txs directly.
	confirmedTxs func(txsOnMain, blocksOnMain int) int

	// selfish is the installed selfish-mining adversary, consulted by the
	// production path for the γ side of the 1-1 race (nil = none).
	selfish *SelfishMiningBehavior
	// raceChances counts honest block wins while the adversary's 1-1 race
	// was open (the γ coin's opportunities); raceTaken counts the wins
	// that actually extended the adversary's published block. Their ratio
	// is the measured "effective γ" E17 reports next to the configured
	// value. Both stay zero in honest runs.
	raceChances, raceTaken int
}

// newChainRuntime builds the shared chain core over a fresh shell on ids,
// the index of the network's block catalog.
func newChainRuntime(s *sim.Simulator, net *sim.Network, nodes int, ids *catalog.Index, confirmedTxs func(txsOnMain, blocksOnMain int) int) *chainRuntime {
	c := &chainRuntime{confirmedTxs: confirmedTxs}
	c.netShell.init(s, net, nodes, ids, c)
	return c
}

// has, attachedIDs, object and canonical are the chains' history view: a
// node's store (side and orphan-adopted blocks included — anything
// attached is servable) and its height-ordered main chain.
func (c *chainRuntime) has(node sim.NodeID, h hashx.Hash) bool {
	return c.nodes[node].Store().HasBlock(h)
}

func (c *chainRuntime) attachedIDs(node sim.NodeID) []uint64 {
	return c.nodes[node].Store().Attached()
}

func (c *chainRuntime) object(node sim.NodeID, h hashx.Hash) (any, int, bool) {
	blk, ok := c.nodes[node].Store().Get(h)
	if !ok {
		return nil, 0, false
	}
	return blk, blk.Size(), true
}

func (c *chainRuntime) canonical(node sim.NodeID) (int, func(int) (any, int)) {
	st := c.nodes[node].Store()
	return int(st.Height()) + 1, func(i int) (any, int) {
		h, _ := st.HashAtHeight(uint64(i))
		blk, _ := st.Get(h)
		return blk, blk.Size()
	}
}

// reached counts one more node reaching block id and returns the count.
func (c *chainRuntime) reached(id int32) int {
	for int(id) >= len(c.reach) {
		c.reach = append(c.reach, 0)
	}
	c.reach[id]++
	return int(c.reach[id])
}

// apply is the chains' verdict on a first-seen block: count it toward
// propagation and process it into the ledger. Processing errors mean a
// byzantine block; honest sims don't produce them, and a relay node
// still floods valid-looking data. A parked orphan asks for no pull.
func (c *chainRuntime) apply(node sim.NodeID, id int32, obj any) (bool, hashx.Hash) {
	if c.reached(id) == len(c.nodes) {
		born, _ := c.bornAt(id)
		c.metrics.Propagation.AddDuration(c.rt.sim.Now() - born)
	}
	_, _ = c.nodes[node].ProcessBlock(obj.(*chain.Block))
	return true, hashx.Zero
}

// addNode registers one chain full node, its blocks gossiped through the
// shell and its orphan pool bounded by np's backlog knobs. The returned
// id equals the node's index.
func (c *chainRuntime) addNode(l chainLedger, np NetParams) sim.NodeID {
	idx := sim.NodeID(len(c.nodes))
	c.nodes = append(c.nodes, l)
	bindBacklog(&c.netShell, idx, l.Store().Orphans(), np)
	return c.rt.AddNode(func(from sim.NodeID, payload any, size int) {
		switch msg := payload.(type) {
		case *chain.Block:
			c.receive(idx, from, c.objectID(msg), msg, size)
		default:
			c.serve(idx, from, payload)
		}
	})
}

// produce lets node idx extend its own view with a freshly won block —
// the stale-tip race that produces Fig. 4's soft forks when propagation
// lags — then floods it, unless the producer's behavior withholds it
// (selfish mining keeps it on a private chain until release).
func (c *chainRuntime) produce(idx int, proposer keys.Address, difficulty float64) *chain.Block {
	blk := c.nodes[idx].BuildBlock(proposer, c.rt.sim.Now())
	blk.Header.Difficulty = difficulty
	c.publishProduced(idx, blk)
	return blk
}

// publishProduced mints a freshly won block, counts it, applies it to
// the producer's own ledger, and floods it unless the producer's
// behavior withholds it.
func (c *chainRuntime) publishProduced(idx int, blk *chain.Block) {
	id := c.mint(sim.NodeID(idx), blk)
	now := c.rt.sim.Now()
	c.metrics.BlocksTotal++
	if c.blockCount == 0 {
		c.firstBlockAt = now
	}
	c.lastBlockAt = now
	c.blockCount++
	c.reached(id)
	_, _ = c.nodes[idx].ProcessBlock(blk)
	c.flood(sim.NodeID(idx), id, blk, blk.Size())
}

// raceProduce is the γ side of the selfish miner's 1-1 race: while the
// race is open, a fraction gamma of honest block wins extend the
// adversary's published block instead of the winner's own first-seen
// tip (Eyal–Sirer's connectivity parameter). It reports whether it
// produced the block; false sends the caller down the normal produce
// path. The rng is drawn only when an installed adversary with γ > 0
// actually has a race open, so γ = 0 — and every honest run —
// reproduces the historical event stream byte for byte.
func (c *chainRuntime) raceProduce(idx int, proposer keys.Address, difficulty float64) bool {
	b := c.selfish
	if b == nil || b.gamma <= 0 || !b.raceOpen || sim.NodeID(idx) == b.node {
		return false
	}
	// Every honest win past this point was a γ opportunity — including
	// wins where the adversary's block had not yet propagated to the
	// winner, which is exactly the gap between configured and effective γ.
	c.raceChances++
	node := c.nodes[idx]
	if _, ok := node.Store().Get(b.raceTip); !ok {
		return false // the adversary's block has not reached this miner yet
	}
	if c.rt.sim.Rand().Float64() >= b.gamma {
		return false
	}
	blk, err := node.BuildBlockOn(b.raceTip, proposer, c.rt.sim.Now())
	if err != nil {
		return false
	}
	blk.Header.Difficulty = difficulty
	c.publishProduced(idx, blk)
	c.raceTaken++
	return true
}

// produceWithRace is the production entry for honest block wins: the γ
// side of an open selfish race first, the winner's own tip otherwise.
// Keeping the fallback here — not at the per-network call sites — means
// a new production path gets the γ seam for free.
func (c *chainRuntime) produceWithRace(idx int, proposer keys.Address, difficulty float64) {
	if !c.raceProduce(idx, proposer, difficulty) {
		c.produce(idx, proposer, difficulty)
	}
}

// scheduleSubmit arms a payment submission at the given time: attempt
// builds and pools the transaction and reports acceptance; the runtime
// owns the submitted/rejected accounting both chains used to duplicate.
func (c *chainRuntime) scheduleSubmit(at time.Duration, attempt func() bool) {
	c.rt.sim.At(at, func() {
		c.metrics.SubmittedTxs++
		if !attempt() {
			c.metrics.RejectedTxs++
		}
	})
}

// collect summarizes the run from the observer's (node 0) perspective.
func (c *chainRuntime) collect(duration time.Duration) ChainMetrics {
	obs := c.nodes[0]
	st := obs.Store().Stats()
	m := &c.metrics
	m.Duration = duration
	m.BlocksOnMain = int(obs.Height())
	m.Orphaned = st.OrphanedTotal
	if m.BlocksTotal > 0 {
		m.OrphanRate = float64(m.Orphaned) / float64(m.BlocksTotal)
	}
	m.Reorgs = st.Reorgs
	m.MaxReorgDepth = st.MaxReorgDepth
	m.ConfirmedTxs = c.confirmedTxs(st.TxsOnMain, m.BlocksOnMain)
	if m.ConfirmedTxs < 0 {
		m.ConfirmedTxs = 0
	}
	if duration > 0 {
		m.TPS = float64(m.ConfirmedTxs) / duration.Seconds()
	}
	m.PendingAtEnd = obs.PoolLen()
	m.LedgerBytes = obs.LedgerBytes()
	if c.blockCount > 1 {
		span := c.lastBlockAt - c.firstBlockAt
		m.MeanBlockInterval = span / time.Duration(c.blockCount-1)
	}
	ns := c.rt.net.Stats()
	m.MessagesSent = ns.MessagesSent
	m.BytesSent = ns.BytesSent
	return *m
}

// TipsConverged reports whether every node agrees on the chain tip.
func (c *chainRuntime) TipsConverged() bool {
	tip := c.nodes[0].Store().Tip()
	for _, l := range c.nodes[1:] {
		if l.Store().Tip() != tip {
			return false
		}
	}
	return true
}

// ConvergedWithin reports whether every node agrees with the observer's
// main chain at depth back below the observer's tip — tip equality with
// a tolerance for blocks still propagating at the cutoff instant.
func (c *chainRuntime) ConvergedWithin(back int) bool {
	obs := c.nodes[0]
	target := int(obs.Height()) - back
	if target < 0 {
		target = 0
	}
	want, ok := obs.Store().HashAtHeight(uint64(target))
	if !ok {
		return false
	}
	for _, l := range c.nodes[1:] {
		if got, ok := l.Store().HashAtHeight(uint64(target)); !ok || got != want {
			return false
		}
	}
	return true
}

// MinerShare reports how many attributed observer main-chain blocks node
// idx produced, against all attributed main-chain blocks — the selfish
// miner's revenue accounting (E17; genesis carries no attribution and is
// excluded).
func (c *chainRuntime) MinerShare(idx int) (mined, total int) {
	for _, h := range c.nodes[0].Store().MainChain() {
		maker := c.makerOf(c.id(h))
		if maker < 0 {
			continue // genesis and injected blocks carry no attribution
		}
		total++
		if maker == int32(idx) {
			mined++
		}
	}
	return mined, total
}

// EclipseReport summarizes a victim's divergence from the rest of the
// network after an eclipse: how far its chain lags the consensus view
// and how many of its main-chain blocks the consensus never adopted —
// the window a double spend against the victim rides through.
type EclipseReport struct {
	// VictimHeight and ConsensusHeight are the victim's main-chain
	// height and the highest main-chain height among the other nodes.
	VictimHeight, ConsensusHeight uint64
	// HeightLag is max(0, ConsensusHeight - VictimHeight).
	HeightLag int
	// ExposedBlocks counts victim main-chain blocks (genesis excluded)
	// absent from the consensus main chain: confirmations the victim
	// trusts that the network will never honor.
	ExposedBlocks int
}

// EclipseReport compares a victim node's chain against the best chain
// held by any other node after a run (E16; ties broken toward the lowest
// index, so the report is deterministic).
func (c *chainRuntime) EclipseReport(victim int) EclipseReport {
	var r EclipseReport
	best := -1
	for i, l := range c.nodes {
		if i == victim {
			continue
		}
		if best < 0 || l.Height() > c.nodes[best].Height() {
			best = i
		}
	}
	if best < 0 {
		return r
	}
	r.VictimHeight = c.nodes[victim].Height()
	r.ConsensusHeight = c.nodes[best].Height()
	if r.ConsensusHeight > r.VictimHeight {
		r.HeightLag = int(r.ConsensusHeight - r.VictimHeight)
	}
	consensus := c.nodes[best].Store()
	for i, h := range c.nodes[victim].Store().MainChain() {
		if i > 0 && !consensus.IsOnMainChain(h) { // i 0: shared genesis
			r.ExposedBlocks++
		}
	}
	return r
}
