// The fault-injection scenario driver: scripted partitions, node churn
// and lossy periods applied to the two chain networks and the
// block-lattice (the tangle has no fault arm yet), plus the contested
// double-spend attack on the block-lattice. The scheduling, the sync
// arming and the default catch-up exchange are the network shell's
// (shell.go); this file holds the scripts and the lattice's own
// catch-up reaction. The paper's central §IV claim —
// blockchain forks resolve by depth while Nano settles by vote quorum —
// is exactly a claim about behavior under these faults, so the E14/E15
// experiments build on this file.
//
// All injection is scheduled on the network's own deterministic
// simulator: a given schedule and seed reproduce the same adversity
// byte for byte, and an empty schedule is a strict no-op (the unfaulted
// pipeline is untouched).
package netsim

import (
	"bytes"
	"sort"
	"time"

	"repro/internal/hashx"
	"repro/internal/lattice"
	"repro/internal/orv"
	"repro/internal/sim"
)

// PartitionWindow splits the network into connectivity groups at At and
// heals it at HealAt (no heal if HealAt <= At). On heal the driver also
// replays a catch-up sync between the former groups, standing in for the
// bootstrap/IBD real nodes run after reconnecting.
type PartitionWindow struct {
	At     time.Duration
	HealAt time.Duration
	// Groups assigns nodes to sides; unlisted nodes form group 0.
	Groups map[sim.NodeID]int
}

// ChurnWindow takes one node offline at LeaveAt and rejoins it at
// RejoinAt (no rejoin if RejoinAt <= LeaveAt). On rejoin the driver
// replays a catch-up exchange with a live peer.
type ChurnWindow struct {
	Node    int
	LeaveAt time.Duration
	// RejoinAt returns the node with its stale state plus a catch-up.
	RejoinAt time.Duration
}

// LossWindow raises the network's extra loss rate to Rate during
// [At, Until).
type LossWindow struct {
	Rate      float64
	At, Until time.Duration
}

// FaultSchedule scripts adversity for one simulation run. A non-empty
// schedule also arms the network's sync manager for the run, so gapped
// objects are pulled; the zero value schedules and arms nothing.
type FaultSchedule struct {
	Partitions []PartitionWindow
	Churn      []ChurnWindow
	Loss       []LossWindow
}

// SplitGroups builds a two-sided partition map: the LAST frac×nodes
// nodes (rounded to nearest) are split away into group 1, clamped to
// [1, nodes-1] so both sides are nonempty. Node 0, the observer, always
// stays in group 0 — the minority side only while frac <= 0.5.
func SplitGroups(nodes int, frac float64) map[sim.NodeID]int {
	if nodes < 2 {
		return map[sim.NodeID]int{}
	}
	minority := int(frac*float64(nodes) + 0.5)
	if minority < 1 {
		minority = 1
	}
	if minority > nodes-1 {
		minority = nodes - 1
	}
	groups := make(map[sim.NodeID]int, minority)
	for i := nodes - minority; i < nodes; i++ {
		groups[sim.NodeID(i)] = 1
	}
	return groups
}

// groupReps returns one representative node per connectivity group of a
// partition map (the lowest node id of each side, group 0 included), in
// group order — the deterministic sync endpoints for post-heal catch-up.
func groupReps(groups map[sim.NodeID]int, nodes int) []int {
	rep := map[int]int{}
	for i := 0; i < nodes; i++ {
		g := groups[sim.NodeID(i)]
		if cur, ok := rep[g]; !ok || i < cur {
			rep[g] = i
		}
	}
	gs := make([]int, 0, len(rep))
	for g := range rep {
		gs = append(gs, g)
	}
	sort.Ints(gs)
	out := make([]int, 0, len(gs))
	for _, g := range gs {
		out = append(out, rep[g])
	}
	return out
}

// ApplyToBitcoin schedules the fault script on a Bitcoin network: healed
// partitions and rejoining nodes catch up by exchanging main chains.
func (fs FaultSchedule) ApplyToBitcoin(b *BitcoinNet) { b.scheduleFaults(fs, b.chainRuntime) }

// ApplyToEthereum schedules the fault script on an Ethereum network, with
// the same main-chain catch-up as ApplyToBitcoin.
func (fs FaultSchedule) ApplyToEthereum(e *EthereumNet) { e.scheduleFaults(fs, e.chainRuntime) }

// ApplyToNano schedules the fault script on a Nano network: on heal or
// rejoin, nodes exchange their full lattices and re-broadcast
// representative votes for still-open elections — the re-election that
// lets stalled accounts recover. The exchange is SENT in per-chain order,
// but link jitter reorders delivery, so recovery leans on the lattice gap
// buffers and on the pulls — which also fetch blocks that were still
// queued behind processing budgets at the exchange instant.
func (fs FaultSchedule) ApplyToNano(n *NanoNet) { n.scheduleFaults(fs, n) }

// firstAttachedNode returns the lowest-index attached node other than
// skip, or -1 when every other node is detached.
func firstAttachedNode(net *sim.Network, nodes, skip int) int {
	for i := 0; i < nodes; i++ {
		if i != skip && !net.IsDetached(sim.NodeID(i)) {
			return i
		}
	}
	return -1
}

// Empty reports whether the schedule injects nothing.
func (fs FaultSchedule) Empty() bool {
	return len(fs.Partitions) == 0 && len(fs.Churn) == 0 && len(fs.Loss) == 0
}

// healed is the lattice's post-heal catch-up: every node serves its
// lattice to the other sides' group representatives (a node whose gossip
// peers all sat across the split may hold blocks nobody else has; first-
// seen relay floods the novelty from the reps), then every node
// re-broadcasts its open votes.
func (n *NanoNet) healed(groups map[sim.NodeID]int) {
	reps := groupReps(groups, len(n.nodes))
	for i := range n.nodes {
		gi := groups[sim.NodeID(i)]
		for _, r := range reps {
			if i != r && groups[sim.NodeID(r)] != gi {
				n.sendHistory(i, r)
			}
		}
	}
	for _, node := range n.nodes {
		n.resendOpenVotes(node)
	}
}

// rejoined exchanges lattices both ways between a node back on the
// network and a live peer, then every node re-broadcasts its open votes.
func (n *NanoNet) rejoined(node int) {
	if live := firstAttachedNode(n.rt.net, len(n.nodes), node); live >= 0 {
		n.sendHistory(live, node)
		n.sendHistory(node, live)
	}
	for _, nd := range n.nodes {
		n.resendOpenVotes(nd)
	}
}

// resendOpenVotes re-broadcasts a node's current representative votes for
// every election it has not yet seen confirmed, in deterministic root
// order. Re-votes carry their original sequence numbers, so nodes that
// already tallied them discard the duplicates and only the other side of
// a former split learns anything new.
func (n *NanoNet) resendOpenVotes(node *nanoNode) { n.resendVotes(node, false) }

// resendDecidedVotes re-broadcasts a node's current votes INCLUDING the
// ones for elections it already saw decided — the confirm-ack real nodes
// serve on request. A node that confirmed and cemented a block during a
// split never re-votes through resendOpenVotes, so a victim discovering
// the fork only after heal would starve without this: the executed
// double-spend scenarios (E18) schedule it at their heal instant.
func (n *NanoNet) resendDecidedVotes(node *nanoNode) { n.resendVotes(node, true) }

func (n *NanoNet) resendVotes(node *nanoNode, includeDecided bool) {
	if len(node.repAccounts) == 0 || len(node.myVotes) == 0 {
		return
	}
	roots := make([]hashx.Hash, 0, len(node.myVotes))
	for root, mine := range node.myVotes {
		if mine.cand == hashx.Zero || (!includeDecided && node.tracker.Confirmed(mine.cand)) {
			continue
		}
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool { return bytes.Compare(roots[i][:], roots[j][:]) < 0 })
	for _, root := range roots {
		mine := node.myVotes[root]
		for _, rep := range node.repAccounts {
			v := orv.NewVote(n.ring.Pair(rep), mine.cand, mine.seq)
			if !n.rt.voteAllowed(node.id, v) {
				continue
			}
			n.metrics.VotesSent++
			n.rt.Broadcast(node.id, v, v.EncodedSize())
		}
	}
}

// DoubleSpendPlan schedules a contested double spend: the attacker
// account signs two conflicting sends from the same predecessor — the
// honest one published at its owner node, the rival injected at a node
// halfway across the network (§IV-B: "forks in Nano are only possible as
// a result of a malicious attack").
type DoubleSpendPlan struct {
	Attacker, VictimA, VictimB int
	Amount                     uint64
	At                         time.Duration
	// Entry is the node index the rival send enters at; 0 (the zero
	// value) places it halfway across the network from the attacker's
	// owner node.
	Entry int
}

// DoubleSpendHandle reports what a scheduled double spend actually
// injected; fields fill when the event fires.
type DoubleSpendHandle struct {
	// Injected is false if the attacker lacked funds at At.
	Injected bool
	// Honest and Rival are the conflicting send hashes; Root is their
	// shared predecessor, the fork election's root.
	Honest, Rival, Root hashx.Hash
}

// DoubleSpendOutcome summarizes the observer's final verdict on an
// injected double spend.
type DoubleSpendOutcome struct {
	Injected bool
	// RivalWon reports that the attacker's rival send is attached at the
	// observer — the double spend SUCCEEDED against the honest payment.
	RivalWon bool
	// HonestAttached reports the honest send on the observer's lattice.
	HonestAttached bool
	// RivalCemented reports the rival irreversibly cemented.
	RivalCemented bool
	// Resolved reports the fork election completed at the observer.
	Resolved bool
}

// InjectContestedDoubleSpend schedules the conflicting sends and registers
// the rival as the adversary's preferred candidate, so byzantine nodes
// (NanoConfig.ByzantineNodes) contest the election with their weight.
// With zero byzantine nodes honest representatives resolve the fork by
// first-seen + leader-follow voting.
func (n *NanoNet) InjectContestedDoubleSpend(p DoubleSpendPlan) *DoubleSpendHandle {
	h := &DoubleSpendHandle{}
	n.rt.sim.At(p.At, func() {
		ownerIdx := n.ownerOf(p.Attacker)
		owner := n.nodes[ownerIdx]
		head, ok := owner.lat.HeadBlock(n.ring.Addr(p.Attacker))
		if !ok || head.Balance < p.Amount {
			return
		}
		prev := head.Hash()
		honest, err := owner.lat.NewSend(n.ring.Pair(p.Attacker), n.ring.Addr(p.VictimA), p.Amount)
		if err != nil {
			return
		}
		rival, err := lattice.NewForkSend(
			n.ring.Pair(p.Attacker), prev, head.Balance,
			n.ring.Addr(p.VictimB), p.Amount, head.Representative, n.cfg.WorkBits)
		if err != nil {
			return
		}
		h.Injected = true
		h.Honest, h.Rival, h.Root = honest.Hash(), rival.Hash(), prev
		// Register the attack before publishing: byzantine nodes must
		// already know which candidate to back when the blocks arrive.
		n.advContested[h.Honest] = true
		n.advPreferred[h.Rival] = true
		n.publish(owner, honest)
		entryIdx := p.Entry
		if entryIdx <= 0 || entryIdx >= len(n.nodes) {
			entryIdx = (ownerIdx + len(n.nodes)/2) % len(n.nodes)
		}
		n.stamp(n.objectID(rival), owner.id)
		n.rt.Unicast(owner.id, n.nodes[entryIdx].id, rival, rival.EncodedSize())
	})
	return h
}

// Outcome reads the observer's final state for an injected double spend.
// Call after the run completes.
func (n *NanoNet) Outcome(h *DoubleSpendHandle) DoubleSpendOutcome {
	out := DoubleSpendOutcome{Injected: h.Injected}
	if !h.Injected {
		return out
	}
	obs := n.nodes[0]
	_, out.RivalWon = obs.lat.Get(h.Rival)
	_, out.HonestAttached = obs.lat.Get(h.Honest)
	out.RivalCemented = obs.tracker.IsCemented(h.Rival)
	out.Resolved = obs.resolvedForks[forkRootOf(h.Root)]
	return out
}

// LatticeConverged reports whether every node agrees on every account's
// chain head — the "recovered" verdict after partitions and churn.
func (n *NanoNet) LatticeConverged() bool {
	obs := n.nodes[0]
	for i := 0; i < n.cfg.Accounts; i++ {
		addr := n.ring.Addr(i)
		h0, ok0 := obs.lat.Head(addr)
		for _, node := range n.nodes[1:] {
			if h, ok := node.lat.Head(addr); ok != ok0 || h != h0 {
				return false
			}
		}
	}
	return true
}

// ByzantineWeightFraction reports the share of total voting weight held
// by representatives hosted on byzantine nodes — the attacker's measured
// strength in an E15 sweep point.
func (n *NanoNet) ByzantineWeightFraction() float64 {
	if n.cfg.ByzantineNodes <= 0 {
		return 0
	}
	weights := n.weights
	total := weights.Total()
	if total == 0 {
		return 0
	}
	var byz uint64
	for _, node := range n.nodes {
		if !node.byzantine {
			continue
		}
		for _, rep := range node.repAccounts {
			byz += weights.WeightOf(n.ring.Addr(rep))
		}
	}
	return float64(byz) / float64(total)
}
