package netsim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/backlog"
	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/orv"
	"repro/internal/sim"
	"repro/internal/workload"
)

// NanoConfig parameterizes a Nano-like block-lattice network.
type NanoConfig struct {
	Net NetParams
	// Accounts is the user population; account 0 owns the genesis supply
	// which is distributed evenly at setup.
	Accounts int
	// Reps is the number of representative accounts (accounts 0..Reps-1);
	// every account delegates to rep (index mod Reps).
	Reps int
	// Supply is the total issued value.
	Supply uint64
	// WorkBits is the anti-spam PoW difficulty. Keep 0 in large runs:
	// the throttle it imposes is modeled analytically by SpamThrottle.
	WorkBits int
	// QuorumFraction for ORV confirmation (default 0.5, §IV-B majority).
	QuorumFraction float64
	// ReceiveDelay is how quickly an online owner issues the settling
	// receive after observing a send (Fig. 3).
	ReceiveDelay time.Duration
	// OfflineReceivers lists accounts whose owners never issue receives,
	// reproducing §II-B's "a node has to be online in order to receive a
	// transaction".
	OfflineReceivers map[int]bool
	// ProcPerBlock and ProcPerVote are per-message node processing
	// budgets modeling §VI-B's consumer-hardware limit (zero disables).
	ProcPerBlock time.Duration
	ProcPerVote  time.Duration
	// Workers is read by nothing: a node validates on one goroutine,
	// and its hardware bound is modelled in simulated time.
	//
	// Deprecated: kept only so callers that set it still compile
	// (benchmark/legs.go does); it is to be deleted with them.
	Workers int
	// BatchSize enables batched live-gossip settlement: blocks arriving
	// from gossip accumulate in a per-node ingest queue and settle
	// together, in arrival order, once BatchSize blocks are waiting or
	// BatchWindow elapses, whichever is first — how real block-lattice
	// nodes keep up with gossip floods (§VI-B). A flush is cheaper than
	// its blocks one by one only in simulated time (BatchCores). <= 1
	// (the default) settles one block per arrival.
	BatchSize int
	// BatchWindow bounds how long a partial ingest batch may wait before
	// it is flushed (default 5ms when BatchSize > 1).
	BatchWindow time.Duration
	// BatchCores models how many consumer-CPU cores a batching node puts
	// behind one flush: a batch of k blocks occupies the node for
	// ceil(k/BatchCores) × ProcPerBlock instead of k × ProcPerBlock —
	// §VI-B's hardware ceiling, lifted by pipelined validation. Default 4
	// when batching is enabled; only meaningful with ProcPerBlock > 0.
	// Fixed (never derived from the host CPU count) so tables stay
	// deterministic across machines.
	BatchCores int
	// ByzantineNodes makes the LAST k nodes vote adversarially: when a
	// contested double spend is injected (InjectContestedDoubleSpend),
	// their representatives vote for the attacker's preferred rival,
	// abstain from the honest block's election, and never follow the
	// leader — §IV-B's "malicious attack" forks, with the attacker's
	// voting weight swept by how many representatives those nodes host.
	// Zero (the default) keeps every node honest and reproduces the
	// unfaulted pipeline byte for byte. Node 0 (the observer) is always
	// honest, so the cap is Nodes-1.
	ByzantineNodes int
}

func (c NanoConfig) withDefaults() NanoConfig {
	c.Net = c.Net.withDefaults()
	if c.Accounts <= 0 {
		c.Accounts = 32
	}
	if c.Reps <= 0 {
		c.Reps = 4
	}
	if c.Reps > c.Accounts {
		c.Reps = c.Accounts
	}
	if c.Supply == 0 {
		c.Supply = 1 << 40
	}
	if c.QuorumFraction == 0 {
		c.QuorumFraction = 0.5
	}
	if c.ReceiveDelay <= 0 {
		c.ReceiveDelay = 50 * time.Millisecond
	}
	if c.BatchSize > 1 && c.BatchWindow <= 0 {
		c.BatchWindow = 5 * time.Millisecond
	}
	if c.BatchSize > 1 && c.BatchCores <= 0 {
		c.BatchCores = 4
	}
	if c.ByzantineNodes < 0 {
		c.ByzantineNodes = 0
	}
	if c.ByzantineNodes >= c.Net.Nodes {
		c.ByzantineNodes = c.Net.Nodes - 1
	}
	return c
}

// maxPendingVotes bounds the votes one node holds for candidate blocks it
// has not seen yet, so votes for blocks that never materialize (rejected
// rivals, spam) cannot pin memory under a vote flood; the oldest vote is
// evicted first.
const maxPendingVotes = 1 << 16

// maxIngestBacklog bounds the gossip ingest queue when
// NetParams.BacklogCap is unset. The count-triggered flush already
// empties the queue at BatchSize, so the default bound only matters if a
// cap below BatchSize is configured — then eviction, not the count
// flush, holds the line (the window timer still settles the remainder).
const maxIngestBacklog = 4096

// nanoNode is one full node: lattice replica, vote tracker, pending votes.
// Hot-path dedup (seen blocks, seen votes) lives in the network-level
// struct-of-arrays matrices (the shell's seen, NanoNet.seenVotes),
// addressed by this node's index; the maps that remain below are cold —
// forks, this node's own votes, gap repair — and are allocated lazily on
// first write, so a node that never hits those paths (the overwhelming
// majority at mega-scale) carries no map at all.
type nanoNode struct {
	id      sim.NodeID
	lat     *lattice.Lattice
	tracker *orv.Tracker
	// byzantine nodes vote for adversary-preferred fork candidates and
	// never switch (NanoConfig.ByzantineNodes).
	byzantine bool
	// repAccounts are representative indices whose owner is this node.
	repAccounts []int
	// forkRoots maps fork-election candidates to their derived roots,
	// shadowing the identity rule for plain candidates (applyVote).
	forkRoots map[hashx.Hash]hashx.Hash
	// forkPrev maps a fork election's derived root back to the contested
	// predecessor block it is about (the ResolveFork argument).
	forkPrev map[hashx.Hash]hashx.Hash
	// pendingVotes parks votes whose candidate block is unknown under that
	// candidate, bounded by maxPendingVotes; an evicted vote's dedup bit is
	// cleared so a rebroadcast lands again. It stays outside
	// NetParams.BacklogCap/BacklogTTL: no protocol re-pulls a vote.
	pendingVotes backlog.Buffer[hashx.Hash, *orv.Vote]
	// ingest accumulates gossip blocks awaiting a batched flush
	// (BatchSize > 1 only); flushTimer is the armed BatchWindow
	// flush event. Each entry remembers its sender, the pull target.
	ingest     []ingestEntry
	flushTimer sim.EventID
	flushArmed bool
	// myVotes is this node's reps' current vote per election root.
	myVotes map[hashx.Hash]myVote
	// issuedReceive dedups settle blocks per send.
	issuedReceive map[hashx.Hash]bool
	// resolvedForks dedups fork resolutions.
	resolvedForks map[hashx.Hash]bool
}

// myVote is the candidate this node's reps back in one election, the
// sequence number they voted it under, and how often they have switched.
type myVote struct {
	cand     hashx.Hash
	seq      uint64
	switches int
}

// row is the node's row index in the network's pooled bit matrices.
func (node *nanoNode) row() int { return int(node.id) }

// lazyPut inserts into a lazily allocated map, allocating on first write.
// The cold per-node maps stay nil until a node actually hits their path.
func lazyPut[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// NanoMetrics summarizes a lattice network run.
type NanoMetrics struct {
	Duration time.Duration
	// TransfersSubmitted counts payment requests; SendsCreated the sends
	// actually issued (a sender may lack funds mid-run).
	TransfersSubmitted int
	SendsCreated       int
	// SettledAtObserver counts transfers whose receive reached node 0.
	SettledAtObserver int
	// UnsettledAtEnd is the observer's pending (send-without-receive)
	// count — Fig. 3's "unsettled" census.
	UnsettledAtEnd int
	// TPS counts settled transfers per second; BPS counts lattice blocks
	// per second (Nano's native unit: one transfer = two blocks).
	TPS float64
	BPS float64
	// ConfirmLatency is the distribution of block-creation→quorum
	// delays at the observer, in seconds (§IV-B confirmation).
	ConfirmLatency metrics.Histogram
	// ConfirmedBlocks and CementedBlocks count quorum outcomes.
	ConfirmedBlocks int
	CementedBlocks  int
	// ForksDetected and ForksResolved track §IV-B conflicts.
	ForksDetected int
	ForksResolved int
	// VotesSent counts vote messages network-wide.
	VotesSent    int
	MessagesSent int
	BytesSent    int64
	// GossipBatches and GossipBatchedBlocks count ingest-queue flushes
	// and the blocks they settled (zero when BatchSize <= 1, the serial
	// path).
	GossipBatches       int
	GossipBatchedBlocks int
	// ForkResolveLatency is the distribution of fork-detection→resolution
	// delays at the observer, in seconds — the re-election time §IV-B's
	// representative voting needs to settle a contested predecessor.
	ForkResolveLatency metrics.Histogram
	// LedgerBytes and HeadBytes give the §V-B size comparison.
	LedgerBytes int
	HeadBytes   int
}

// NanoNet is a running block-lattice network simulation. Node lifecycle,
// relay and vote dissemination run through the shared NodeRuntime, so
// per-node Behaviors (eclipse, vote withholding) intercept them.
type NanoNet struct {
	netShell
	cfg   NanoConfig
	nodes []*nanoNode
	ring  *keys.Ring

	// Vote dedup beside the shell's block dedup: one dense-id dictionary
	// shared by every node plus a pooled bit matrix over its ids (soa.go).
	// A vote is seen at a node once it was applied or parked there.
	voteIDs   *dex[voteKey]
	seenVotes *bitRows
	// weights is the representative weight table every node's tracker
	// tallies against: the setup distribution fixes it and nothing
	// changes it afterwards.
	weights *orv.Weights

	metrics NanoMetrics

	// Adversary bookkeeping (InjectContestedDoubleSpend): the attacker's
	// preferred rival blocks, the honest blocks it contests, and when the
	// observer first saw each fork root (for re-election latency).
	advPreferred map[hashx.Hash]bool
	advContested map[hashx.Hash]bool
	forkSeenAt   map[hashx.Hash]time.Duration
}

// ingestEntry is one queued gossip block, its catalog id and the node
// that sent it.
type ingestEntry struct {
	b    *lattice.Block
	id   int32
	from sim.NodeID
}

// NewNano builds the network: identical genesis on every node, an even
// initial distribution processed everywhere at setup, and weight tables
// computed from the resulting delegation (§III-B).
func NewNano(cfg NanoConfig) (*NanoNet, error) {
	cfg = cfg.withDefaults()
	s, net := buildNetwork(cfg.Net)
	ring := keys.NewRing("nano-net", cfg.Accounts)

	// Build the canonical initial distribution once.
	seedLat, _, err := lattice.New(ring.Pair(0), cfg.Supply, cfg.WorkBits)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	share := cfg.Supply / uint64(cfg.Accounts)
	var setupBlocks []*lattice.Block
	for i := 1; i < cfg.Accounts; i++ {
		send, err := seedLat.NewSend(ring.Pair(0), ring.Addr(i), share)
		if err != nil {
			return nil, fmt.Errorf("netsim: distribute: %w", err)
		}
		if res := seedLat.Process(send); res.Status != lattice.Accepted {
			return nil, fmt.Errorf("netsim: distribute send: %v", res.Status)
		}
		rep := ring.Addr(i % cfg.Reps)
		open, err := seedLat.NewOpen(ring.Pair(i), send.Hash(), rep)
		if err != nil {
			return nil, fmt.Errorf("netsim: open: %w", err)
		}
		if res := seedLat.Process(open); res.Status != lattice.Accepted {
			return nil, fmt.Errorf("netsim: distribute open: %v", res.Status)
		}
		setupBlocks = append(setupBlocks, send, open)
	}

	// The template replayed the whole distribution serially, so one
	// integrity check here covers every node: each replica below is a
	// structural clone of this exact verified state.
	if seedLat.GapCount() != 0 || seedLat.BlockCount() != len(setupBlocks)+1 {
		return nil, fmt.Errorf("netsim: distribution incomplete: %d/%d blocks, %d gapped",
			seedLat.BlockCount(), len(setupBlocks)+1, seedLat.GapCount())
	}

	n := &NanoNet{
		cfg:          cfg,
		ring:         ring,
		voteIDs:      newDex[voteKey](256),
		seenVotes:    newBitRows(cfg.Net.Nodes, 256),
		advPreferred: make(map[hashx.Hash]bool),
		advContested: make(map[hashx.Hash]bool),
		forkSeenAt:   make(map[hashx.Hash]time.Duration),
	}
	n.netShell.init(s, net, cfg.Net.Nodes, seedLat.Index(), n)
	n.metrics.ConfirmLatency.SetBudget(cfg.Net.SampleBudget)
	n.metrics.ForkResolveLatency.SetBudget(cfg.Net.SampleBudget)

	n.weights = orv.NewWeights(seedLat.RepWeights())
	for i := 0; i < cfg.Net.Nodes; i++ {
		// Clone the verified template instead of re-signing a genesis and
		// re-verifying the distribution per node: every replica shares the
		// template's block catalog and copies only its own columns — the
		// setup cost no longer scales with nodes × distribution size at
		// mega-scale (E19).
		node := &nanoNode{
			byzantine:    cfg.ByzantineNodes > 0 && i >= cfg.Net.Nodes-cfg.ByzantineNodes,
			lat:          seedLat.Clone(),
			tracker:      orv.NewTracker(n.weights, orv.Config{QuorumFraction: cfg.QuorumFraction}),
			pendingVotes: backlog.New[hashx.Hash, *orv.Vote](maxPendingVotes),
		}
		for rep := 0; rep < cfg.Reps; rep++ {
			if n.ownerOf(rep) == i {
				node.repAccounts = append(node.repAccounts, rep)
			}
		}
		node.id = n.rt.AddNode(n.handlerFor(node))
		n.nodes = append(n.nodes, node)
		bindBacklog(&n.netShell, node.id, node.lat.Gaps(), cfg.Net)
		node.pendingVotes.OnEvict(func(v *orv.Vote) {
			n.seenVotes.clear(node.row(), n.voteIDs.id(voteKeyOf(v)))
		})
	}
	net.SetPeers(sim.RandomPeers(s.Rand(), cfg.Net.Nodes, cfg.Net.PeerDegree))

	if cfg.ProcPerBlock > 0 || cfg.ProcPerVote > 0 {
		net.SetProcessing(func(_ sim.NodeID, payload any, _ int) time.Duration {
			switch payload.(type) {
			case *lattice.Block:
				if cfg.BatchSize > 1 {
					// Batched nodes enqueue arrivals for free; the
					// validation budget is charged per flush (Occupy in
					// flushIngest), amortized across BatchCores.
					return 0
				}
				return cfg.ProcPerBlock
			case *orv.Vote:
				return cfg.ProcPerVote
			default:
				return 0
			}
		})
	}
	return n, nil
}

// ownerOf maps an account index to its owner node index.
func (n *NanoNet) ownerOf(account int) int { return account % n.cfg.Net.Nodes }

// Observer returns node 0's lattice.
func (n *NanoNet) Observer() *lattice.Lattice { return n.nodes[0].lat }

// Ring returns the account identities.
func (n *NanoNet) Ring() *keys.Ring { return n.ring }

// has, attachedIDs, object and canonical are the lattice's history view:
// a node's attached blocks and its deterministic account-ordered block
// stream.
func (n *NanoNet) has(node sim.NodeID, h hashx.Hash) bool {
	_, ok := n.nodes[node].lat.Get(h)
	return ok
}

func (n *NanoNet) attachedIDs(node sim.NodeID) []uint64 { return n.nodes[node].lat.Attached() }

func (n *NanoNet) object(node sim.NodeID, h hashx.Hash) (any, int, bool) {
	blk, ok := n.nodes[node].lat.Get(h)
	if !ok {
		return nil, 0, false
	}
	return blk, blk.EncodedSize(), true
}

func (n *NanoNet) canonical(node sim.NodeID) (int, func(int) (any, int)) {
	blocks := n.nodes[node].lat.AllBlocks()
	return len(blocks), func(i int) (any, int) { return blocks[i], blocks[i].EncodedSize() }
}

// handlerFor dispatches gossip messages.
func (n *NanoNet) handlerFor(node *nanoNode) sim.Handler {
	return func(from sim.NodeID, payload any, size int) {
		switch msg := payload.(type) {
		case *lattice.Block:
			n.receive(node.id, from, n.objectID(msg), msg, size)
		case *orv.Vote:
			n.onVote(node, msg)
		default:
			n.serve(node.id, from, payload)
		}
	}
}

// apply is the lattice's verdict on a first-seen block: settled serially
// per arrival when BatchSize <= 1, or queued for the per-node ingest
// batch (relayed when the batch flushes) when batching is enabled.
func (n *NanoNet) apply(node, from sim.NodeID, id int32, obj any) (bool, hashx.Hash) {
	b, nd := obj.(*lattice.Block), n.nodes[node]
	if n.cfg.BatchSize > 1 {
		n.enqueueIngest(nd, b, id, from)
		return false, hashx.Zero
	}
	return n.reactToResult(nd, b, nd.lat.Process(b))
}

// reactToResult applies the post-attach handling for one processed
// block — election start, receive scheduling and observer settlement
// counting for the block and every gap it drained, fork-election starts
// for rivals — and returns the verdict: whether the block may be
// relayed, and the ancestor a gapped block waits on. It is the shared
// reaction of the serial path and of every block in a flushed batch.
func (n *NanoNet) reactToResult(node *nanoNode, b *lattice.Block, res lattice.Result) (relay bool, missing hashx.Hash) {
	switch res.Status {
	case lattice.Accepted:
		n.onAttached(node, b, b.Hash())
		for _, d := range res.Drained {
			n.onAttached(node, d, d.Hash())
		}
	case lattice.AcceptedFork:
		if node == n.nodes[0] {
			n.metrics.ForksDetected++
			if _, seen := n.forkSeenAt[b.Prev]; !seen {
				n.forkSeenAt[b.Prev] = n.rt.sim.Now()
			}
		}
		n.startForkElection(node, b, res.ForkRivals)
	case lattice.GapPrevious:
		// Buffered inside the lattice; still relay so peers catch up.
		return true, b.Prev
	case lattice.GapSource:
		return true, b.Source
	case lattice.Rejected:
		return false, hashx.Zero // do not relay invalid blocks
	}
	return true, hashx.Zero
}

// enqueueIngest queues a gossip block for batched settlement, flushing
// when the batch fills and arming the BatchWindow timer otherwise.
func (n *NanoNet) enqueueIngest(node *nanoNode, b *lattice.Block, id int32, from sim.NodeID) {
	node.ingest = append(node.ingest, ingestEntry{b: b, id: id, from: from})
	if len(node.ingest) >= n.cfg.BatchSize {
		n.flushIngest(node)
		return
	}
	cap := n.cfg.Net.BacklogCap
	if cap <= 0 {
		cap = maxIngestBacklog
	}
	if len(node.ingest) > cap {
		// Bounded ingest: drop the oldest queued block, unmark its dedup
		// bit so it can be re-delivered, and re-pull it from its sender.
		evicted := node.ingest[0]
		node.ingest = node.ingest[1:]
		n.unsee(node.id, evicted.id)
		n.sync.evicted(node.id, evicted.b.Hash(), evicted.from)
	}
	if !node.flushArmed {
		node.flushArmed = true
		node.flushTimer = n.rt.sim.After(n.cfg.BatchWindow, func() { n.flushIngest(node) })
	}
}

// flushIngest settles the node's queued gossip blocks through
// lattice.Process in arrival order, then runs the per-block reactions in
// the same order: elections open (replaying any votes buffered against
// the in-flight candidates), receives get scheduled, fork elections
// start, and every non-rejected block is relayed exactly once (arrival
// already dedups via the shell's first-seen bits). Every block settles
// before any reaction runs, because a reaction can resolve a fork and so
// change what a later block of the batch meets.
func (n *NanoNet) flushIngest(node *nanoNode) {
	if node.flushArmed {
		n.rt.sim.Cancel(node.flushTimer)
		node.flushArmed = false
	}
	entries := node.ingest
	node.ingest = nil
	if len(entries) == 0 {
		return
	}
	n.metrics.GossipBatches++
	n.metrics.GossipBatchedBlocks += len(entries)
	if n.cfg.ProcPerBlock > 0 {
		// The §VI-B hardware budget, batch-pipelined: validating k blocks
		// across BatchCores modeled cores occupies the node for
		// ceil(k/cores) serial block costs instead of k.
		rounds := (len(entries) + n.cfg.BatchCores - 1) / n.cfg.BatchCores
		n.rt.net.Occupy(node.id, time.Duration(rounds)*n.cfg.ProcPerBlock)
	}
	results := make([]lattice.Result, len(entries))
	for i, e := range entries {
		results[i] = node.lat.Process(e.b)
	}
	for i, e := range entries {
		relay, missing := n.reactToResult(node, e.b, results[i])
		n.react(node.id, e.from, e.id, e.b, e.b.EncodedSize(), relay, missing)
	}
}

// onAttached reacts to a block joining the node's lattice: open its
// election, settle inbound sends, and count observer-side settlement.
func (n *NanoNet) onAttached(node *nanoNode, b *lattice.Block, h hashx.Hash) {
	n.startPlainElection(node, b, h)
	n.maybeScheduleReceive(node, b, h)
	if node == n.nodes[0] && (b.Type == lattice.Receive || b.Type == lattice.Open) {
		n.metrics.SettledAtObserver++
	}
}

// startPlainElection opens the single-candidate election of §IV-B's
// automatic voting and votes if this node hosts representatives. A
// byzantine node abstains from elections for the honest blocks its
// attacker contests — its weight backs only the preferred rival.
func (n *NanoNet) startPlainElection(node *nanoNode, b *lattice.Block, h hashx.Hash) {
	if node.tracker.HasElection(h) {
		return
	}
	if err := node.tracker.StartElection(h, h); err != nil {
		return
	}
	if !node.byzantine || !n.advContested[h] {
		n.castVotes(node, h, h, 1)
	}
	for _, v := range node.pendingVotes.Take(h) {
		n.applyVote(node, v)
	}
}

// forkRootOf derives the fork election's root from the contested
// predecessor. It must differ from the predecessor's own hash: the
// predecessor already carries its plain confirmation election (usually
// decided long before the fork appears), and rooting the contested
// election there would collide with it.
func forkRootOf(prev hashx.Hash) hashx.Hash {
	buf := make([]byte, 0, len("fork/")+hashx.Size)
	buf = append(buf, "fork/"...)
	buf = append(buf, prev[:]...)
	return hashx.Sum(buf)
}

// startForkElection opens (or extends) the contested-predecessor election
// under its derived fork root. Votes representatives already cast for the
// candidates in their plain elections are adopted into the contested
// election — the vote dedup would otherwise discard their re-broadcasts
// and starve the election.
func (n *NanoNet) startForkElection(node *nanoNode, b *lattice.Block, rivals []hashx.Hash) {
	root := forkRootOf(b.Prev)
	if err := node.tracker.StartElection(root, rivals...); err != nil {
		return
	}
	lazyPut(&node.forkPrev, root, b.Prev)
	for _, c := range rivals {
		lazyPut(&node.forkRoots, c, root)
		if node.tracker.HasElection(c) {
			if out, err := node.tracker.AdoptVotes(root, c, c); err == nil && out.Confirmed {
				n.onConfirmed(node, root, out.Winner)
				return
			}
		}
		for _, v := range node.pendingVotes.Take(c) {
			n.applyVote(node, v)
		}
	}
	// Vote for the incumbent this node's lattice attached (first seen) —
	// unless the node is byzantine and the attacker's preferred rival is
	// on the ballot, in which case its weight contests the election.
	if _, voted := node.myVotes[root]; !voted && len(node.repAccounts) > 0 {
		if cands, ok := node.lat.ForkCandidates(b.Prev); ok && len(cands) > 0 {
			choice := cands[0]
			if node.byzantine {
				for _, c := range cands {
					if n.advPreferred[c] {
						choice = c
						break
					}
				}
			}
			// Seq 2 outruns the seq-1 plain votes: the re-vote's identity
			// is fresh, so peers that deduped the plain broadcast still
			// tally it in their contested elections.
			n.castVotes(node, root, choice, 2)
		}
	}
}

// castVotes makes every representative hosted on this node vote for
// candidate, recording it locally and broadcasting to all nodes (§IV-B:
// "the network automatically broadcasts consensus information"). Each
// vote passes the node's OnVote behavior hook first: a withheld vote is
// neither tallied locally nor broadcast — its weight simply goes silent
// (VoteWithholdBehavior).
func (n *NanoNet) castVotes(node *nanoNode, root, candidate hashx.Hash, seq uint64) {
	if len(node.repAccounts) == 0 {
		return
	}
	lazyPut(&node.myVotes, root, myVote{cand: candidate, seq: seq, switches: node.myVotes[root].switches})
	for _, rep := range node.repAccounts {
		v := orv.NewVote(n.ring.Pair(rep), candidate, seq)
		if !n.rt.voteAllowed(node.id, v) {
			continue
		}
		n.metrics.VotesSent++
		n.applyVote(node, v) // count our own vote locally
		n.rt.Broadcast(node.id, v, v.EncodedSize())
	}
}

// onVote processes a received vote: a first sight at this node is
// applied or parked, a repeat is dropped. Votes are identified by their
// (rep, block, seq) content tuple, so no per-message digest is computed
// on this path.
func (n *NanoNet) onVote(node *nanoNode, v *orv.Vote) {
	if n.seenVotes.testSet(node.row(), n.voteIDs.id(voteKeyOf(v))) {
		return
	}
	n.applyVote(node, v)
}

func voteKeyOf(v *orv.Vote) voteKey {
	return voteKey{Rep: v.Rep, Block: v.Block, Seq: v.Seq}
}

// applyVote tallies a vote and reacts to the outcome: confirmation,
// cementing, fork resolution, and §III-B leader-following vote switches.
// A vote for a candidate with no election yet is parked until the
// election starts.
//
// The election root is the candidate's fork root when it has one
// (startForkElection shadows any earlier plain election), else the
// candidate itself. A fork root is recorded only once its election
// exists, so ErrUnknownRoot, which ProcessVote returns before any side
// effect, means the candidate's plain election has not started.
func (n *NanoNet) applyVote(node *nanoNode, v *orv.Vote) {
	root, ok := node.forkRoots[v.Block]
	if !ok {
		root = v.Block
	}
	out, err := node.tracker.ProcessVote(root, v)
	if errors.Is(err, orv.ErrUnknownRoot) {
		node.pendingVotes.Park(v.Block, v)
		return
	}
	if err != nil {
		return
	}
	if out.Confirmed {
		n.onConfirmed(node, root, out.Winner)
		return
	}
	// Vote switching: follow the leader once it out-tallies our choice.
	// Byzantine representatives never budge — their vote IS the attack.
	if node.byzantine || len(node.repAccounts) == 0 {
		return
	}
	mine, voted := node.myVotes[root]
	if !voted || mine.cand == hashx.Zero || mine.switches >= 3 {
		return
	}
	leader, tally, err := node.tracker.Leader(root)
	if err != nil || leader == hashx.Zero || leader == mine.cand {
		return
	}
	myWeight := uint64(0)
	for _, rep := range node.repAccounts {
		myWeight += n.weights.WeightOf(n.ring.Addr(rep))
	}
	if tally > myWeight {
		mine.switches++
		node.myVotes[root] = mine
		n.castVotes(node, root, leader, mine.seq+1)
	}
}

// onConfirmed handles a quorum: cement the winner, resolve forks, record
// observer-side latency.
func (n *NanoNet) onConfirmed(node *nanoNode, root, winner hashx.Hash) {
	if prev, isFork := node.forkPrev[root]; isFork && !node.resolvedForks[root] {
		lazyPut(&node.resolvedForks, root, true)
		if err := node.lat.ResolveFork(prev, winner); err == nil && node == n.nodes[0] {
			n.metrics.ForksResolved++
			if t0, seen := n.forkSeenAt[prev]; seen {
				n.metrics.ForkResolveLatency.AddDuration(n.rt.sim.Now() - t0)
				delete(n.forkSeenAt, prev)
			}
		}
	}
	_ = node.tracker.Cement(winner)
	if node == n.nodes[0] && n.observeConfirmed(n.id(winner), &n.metrics.ConfirmLatency) {
		n.metrics.ConfirmedBlocks++
	}
}

// maybeScheduleReceive lets the destination's owner settle an observed
// send after ReceiveDelay (Fig. 3's receive leg).
func (n *NanoNet) maybeScheduleReceive(node *nanoNode, b *lattice.Block, h hashx.Hash) {
	if b.Type != lattice.Send {
		return
	}
	destIdx := n.ring.Index(b.Destination)
	if destIdx < 0 || n.ownerOf(destIdx) != int(node.id) {
		return
	}
	if n.cfg.OfflineReceivers[destIdx] {
		return // §II-B: offline receivers leave the transfer unsettled
	}
	if node.issuedReceive[h] {
		return
	}
	lazyPut(&node.issuedReceive, h, true)
	n.rt.sim.After(n.cfg.ReceiveDelay, func() {
		var (
			settle *lattice.Block
			err    error
		)
		if _, opened := node.lat.Head(b.Destination); opened {
			settle, err = node.lat.NewReceive(n.ring.Pair(destIdx), h)
		} else {
			rep := n.ring.Addr(destIdx % n.cfg.Reps)
			settle, err = node.lat.NewOpen(n.ring.Pair(destIdx), h, rep)
		}
		if err != nil {
			return
		}
		n.publish(node, settle)
	})
}

// publish mints, self-processes and floods a locally created block —
// unless the owner's behavior withholds it.
func (n *NanoNet) publish(node *nanoNode, b *lattice.Block) {
	h := b.Hash()
	id := n.mint(node.id, b)
	res := node.lat.Process(b)
	if res.Status == lattice.Accepted {
		n.onAttached(node, b, h)
		for _, d := range res.Drained {
			n.onAttached(node, d, d.Hash())
		}
	}
	n.flood(node.id, id, b, b.EncodedSize())
}

// SubmitTransfer schedules a payment: the sender's owner node issues the
// send; the destination's owner settles it when it arrives.
func (n *NanoNet) SubmitTransfer(p workload.TimedPayment) {
	n.rt.sim.At(p.At, func() {
		n.metrics.TransfersSubmitted++
		owner := n.nodes[n.ownerOf(p.From)]
		send, err := owner.lat.NewSend(n.ring.Pair(p.From), n.ring.Addr(p.To), p.Amount)
		if err != nil {
			return
		}
		n.metrics.SendsCreated++
		n.publish(owner, send)
	})
}

// SpamThrottle returns the maximum block-generation rate an attacker with
// the given hash rate can sustain at the configured work difficulty —
// §III-B's anti-spam bound (hashRate / 2^bits).
func (n *NanoNet) SpamThrottle(hashRate float64) float64 {
	if n.cfg.WorkBits <= 0 {
		return math.Inf(1)
	}
	return hashRate / hashx.ExpectedAttempts(n.cfg.WorkBits)
}

// Run drives the simulation up to the cutoff and returns the metrics.
// Work queued behind per-node processing budgets that has not executed by
// the cutoff stays unexecuted — that backlog is precisely the §VI-B
// hardware limit the metrics report.
func (n *NanoNet) Run(duration time.Duration) NanoMetrics {
	n.rt.sim.RunUntil(duration)
	return n.collect(duration)
}

// RunWithTransfers submits the stream then runs.
func (n *NanoNet) RunWithTransfers(duration time.Duration, transfers []workload.TimedPayment) NanoMetrics {
	for _, p := range transfers {
		n.SubmitTransfer(p)
	}
	return n.Run(duration)
}

func (n *NanoNet) collect(duration time.Duration) NanoMetrics {
	obs := n.nodes[0]
	m := &n.metrics
	m.Duration = duration
	m.UnsettledAtEnd = obs.lat.PendingCount()
	if duration > 0 {
		m.TPS = float64(m.SettledAtObserver) / duration.Seconds()
		// Nano's native throughput counts blocks (sends + receives).
		setupBlocks := 1 + 2*(n.cfg.Accounts-1)
		m.BPS = float64(obs.lat.BlockCount()-setupBlocks) / duration.Seconds()
	}
	st := obs.tracker.Stats()
	m.CementedBlocks = st.Cemented
	m.LedgerBytes = obs.lat.LedgerBytes()
	m.HeadBytes = obs.lat.HeadBytes()
	ns := n.rt.net.Stats()
	m.MessagesSent = ns.MessagesSent
	m.BytesSent = ns.BytesSent
	return *m
}

// The paradigm-seam registration (paradigm.go): Nano's block-lattice is
// the paper's DAG side.
func init() {
	registerParadigm(ParadigmSpec{
		Name: "nano", Family: "dag", Order: 2,
		Build: func(np NetParams, o BuildOptions) (ParadigmNet, error) {
			net, err := NewNano(NanoConfig{Net: np, Accounts: o.Accounts})
			if err != nil {
				return nil, err
			}
			return nanoParadigm{net}, nil
		},
	})
}
