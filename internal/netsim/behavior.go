// Adversarial per-node behaviors on the NodeRuntime seam: eclipse
// (peer-table capture of one node), selfish mining (withheld-block
// strategy on the chain side) and vote withholding (silenced ORV weight
// on the lattice side). Each is a Behavior installed on individual
// nodes; the protocol code never branches on them — the interception
// points in runtime.go are the whole attack surface, exactly how the
// DAG-security surveys organize adversaries: per-node strategies layered
// over a common network substrate.
package netsim

import (
	"repro/internal/chain"
	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/orv"
	"repro/internal/sim"
)

// EclipseBehavior models a victim whose peer table is partially captured
// by an attacker: the captured links are dead — the victim neither
// relays through them (its peer view is rewritten via SetPeersOf) nor
// accepts traffic across them. At fraction 1 the victim is fully
// isolated from its gossip neighborhood and keeps extending a private,
// stale view — the double-spend window E16 measures.
type EclipseBehavior struct {
	HonestBehavior
	victim   sim.NodeID
	captured map[sim.NodeID]bool
	// original is the victim's peer view before capture, and prev its
	// behavior — both restored by LiftEclipse when the attack window
	// closes, so an eclipse composes with other installed behaviors.
	original []sim.NodeID
	prev     Behavior
	// feeder, when set, is the one node the attacker lets through the
	// captured links — the eclipse's whole point in an executed double
	// spend: the victim's view of the ledger is whatever the attacker
	// chooses to feed it (E18).
	feeder    sim.NodeID
	hasFeeder bool
}

// InstallEclipse captures frac of a victim's peer links (rounded to
// nearest, clamped to [0, degree]): the first captured-count entries of
// its sorted peer list become attacker-controlled, the victim's peer
// view shrinks to the survivors, and the behavior drops both directions
// of captured-link traffic. frac <= 0 installs nothing and returns nil —
// a strict no-op, so a zero-fraction sweep point reproduces the honest
// pipeline byte for byte.
func (r *NodeRuntime) InstallEclipse(victim sim.NodeID, frac float64) *EclipseBehavior {
	peers := r.net.Peers(victim)
	if frac <= 0 || len(peers) == 0 {
		return nil
	}
	if frac > 1 {
		frac = 1
	}
	k := int(frac*float64(len(peers)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(peers) {
		k = len(peers)
	}
	b := &EclipseBehavior{
		victim:   victim,
		captured: make(map[sim.NodeID]bool, k),
		original: append([]sim.NodeID(nil), peers...),
		prev:     r.BehaviorOf(victim),
	}
	for _, p := range peers[:k] {
		b.captured[p] = true
	}
	r.net.SetPeersOf(victim, append([]sim.NodeID(nil), peers[k:]...))
	r.SetBehavior(victim, b)
	return b
}

// InstallEclipseFeeder is InstallEclipse with an attacker-controlled
// feed: the feeder node's traffic passes the captured links in both
// directions and joins the victim's (shrunken) peer view. This is the
// textbook eclipse of the DAG-security surveys — the attacker does not
// merely cut the victim off, it OWNS the victim's view of the network
// and feeds it exactly the ledger state the double spend needs (E18).
func (r *NodeRuntime) InstallEclipseFeeder(victim sim.NodeID, frac float64, feeder sim.NodeID) *EclipseBehavior {
	b := r.InstallEclipse(victim, frac)
	if b == nil {
		return nil
	}
	b.feeder = feeder
	b.hasFeeder = true
	view := []sim.NodeID{feeder}
	for _, p := range r.net.Peers(victim) {
		if p != feeder {
			view = append(view, p)
		}
	}
	r.net.SetPeersOf(victim, view)
	return b
}

// LiftEclipse ends an eclipse: the victim's original peer view and its
// pre-eclipse behavior are restored, so gossip flows again — the heal
// instant an executed-attack scenario releases the honest chain at.
// A nil behavior (frac <= 0 installed nothing) is a no-op.
func (r *NodeRuntime) LiftEclipse(b *EclipseBehavior) {
	if b == nil {
		return
	}
	r.net.SetPeersOf(b.victim, append([]sim.NodeID(nil), b.original...))
	r.SetBehavior(b.victim, b.prev)
}

// CapturedPeers returns how many of the victim's links are captured.
func (b *EclipseBehavior) CapturedPeers() int { return len(b.captured) }

// OnInbound drops deliveries arriving over captured links; the feeder,
// when configured, always passes.
func (b *EclipseBehavior) OnInbound(_, from sim.NodeID, _ any, _ int) bool {
	if b.hasFeeder && from == b.feeder {
		return true
	}
	return !b.captured[from]
}

// OnOutbound drops sends leaving over captured links (direct unicasts
// and broadcasts included — votes, gap-repair pulls, catch-up serves);
// the feeder, when configured, always passes.
func (b *EclipseBehavior) OnOutbound(_, to sim.NodeID, _ any, _ int) bool {
	if b.hasFeeder && to == b.feeder {
		return true
	}
	return !b.captured[to]
}

// SelfishMiningBehavior implements the withheld-block strategy (§IV-A's
// attacker, Eyal–Sirer's state machine): blocks the node produces stay
// on a private chain it keeps mining on. When the honest chain advances,
// the miner reacts by lead: at lead 1 it publishes the private block and
// races (opening the 1-1 race state); at lead 2 it publishes everything
// and wins outright; deeper leads publish one block to keep the honest
// chain chasing. A block produced while the race is open is published
// immediately — the race-winning move honest first-seen relay cannot
// counter.
//
// The strategy keeps no record of the blocks it has seen, because a
// repeat delivery cannot move it. rivalHeight only ever grows. A block's
// first OnInbound either finds it at or below rivalHeight, or raises
// rivalHeight to its height; either way every later arrival of it is at
// or below rivalHeight, and ignored. The miner's own blocks raise
// rivalHeight as they go out (released or race-published), so they are
// ignored when gossip brings them back, and a withheld block cannot come
// back before it is released.
type SelfishMiningBehavior struct {
	HonestBehavior
	node    sim.NodeID
	release func(*chain.Block)
	// gamma is Eyal–Sirer's connectivity parameter: the fraction of
	// honest hash power that mines on the adversary's block while the
	// 1-1 race is open. The runtime's production path consults it
	// (chainRuntime.raceProduce); zero reproduces the historical
	// first-seen races byte for byte.
	gamma    float64
	withheld []*chain.Block
	// raceOpen marks the 1-1 race: our lead-1 block was published
	// against a rival of equal height and the next block decides.
	// raceTip is that published block — the branch point γ-connected
	// honest miners extend.
	raceOpen bool
	raceTip  hashx.Hash
	// rivalHeight is the highest PUBLIC chain height the strategy has
	// reacted to — rival (non-self) blocks seen, and its own published
	// branch. Only blocks above it are honest-chain PROGRESS. Same- or
	// lower-height fork siblings — the stale-tip races this simulator
	// deliberately produces — advance nothing and must not trigger the
	// lead policy.
	rivalHeight uint64
	// produced and released count the strategy's footprint.
	produced, released int
}

// InstallSelfishMiner makes node idx mine selfishly (E17; PoW mode on
// Ethereum). The node's hash share comes from the config's HashRates as
// usual; only its publication strategy changes. Races resolve by
// first-seen relay (γ = 0); use InstallSelfishMinerGamma for a connected
// adversary. At most one selfish miner per network (a second install
// panics).
func (c *chainRuntime) InstallSelfishMiner(idx int) *SelfishMiningBehavior {
	return c.InstallSelfishMinerGamma(idx, 0)
}

// InstallSelfishMinerGamma is InstallSelfishMiner with Eyal–Sirer's γ:
// while the 1-1 race is open, each honest block win mines on the
// adversary's published block with probability gamma instead of the
// miner's own first-seen tip — the adversary's connectivity advantage
// that moves the profitability threshold from 1/3 (γ=0) toward 0 (γ=1).
// The strategy becomes the runtime's race adversary (the γ production
// hook). The runtime holds a single race-adversary slot, and a silent
// overwrite would leave the first miner's races γ-disconnected — misuse
// panics instead of mismeasuring.
func (c *chainRuntime) InstallSelfishMinerGamma(idx int, gamma float64) *SelfishMiningBehavior {
	if c.selfish != nil {
		panic("netsim: only one selfish miner per network")
	}
	if gamma < 0 {
		gamma = 0
	}
	if gamma > 1 {
		gamma = 1
	}
	b := &SelfishMiningBehavior{node: sim.NodeID(idx), gamma: gamma}
	// Release relays a withheld block; it was minted when produced.
	b.release = func(blk *chain.Block) { c.rt.Relay(sim.NodeID(idx), blk, blk.Size()) }
	c.rt.SetBehavior(sim.NodeID(idx), b)
	c.selfish = b
	return b
}

// EffectiveGamma reports the measured γ-race outcome: taken honest wins
// that extended the adversary's published race block, out of chances
// honest wins that occurred while the race was open. taken/chances is
// the effective connectivity E17 reports next to the configured γ; it
// falls short of the configuration when the adversary's block had not
// propagated to the winning miner yet. Both are zero in honest runs.
func (c *chainRuntime) EffectiveGamma() (taken, chances int) {
	return c.raceTaken, c.raceChances
}

// Gamma returns the strategy's connectivity parameter.
func (b *SelfishMiningBehavior) Gamma() float64 { return b.gamma }

// Withheld reports how many produced blocks are currently private.
func (b *SelfishMiningBehavior) Withheld() int { return len(b.withheld) }

// Produced and Released report the strategy's lifetime counters.
func (b *SelfishMiningBehavior) Produced() int { return b.produced }
func (b *SelfishMiningBehavior) Released() int { return b.released }

// OnProduce withholds the new block — unless the 1-1 race is open, in
// which case this block settles it: published at once, the private
// branch is now strictly longer and the whole network reorgs onto it.
// The published height becomes the new public frontier (rivalHeight):
// without that advance, a stale honest block at the same height arriving
// later would be miscounted as rival progress and trip the lead policy
// against a branch the network has already abandoned.
func (b *SelfishMiningBehavior) OnProduce(_ sim.NodeID, block any) bool {
	blk, ok := block.(*chain.Block)
	if !ok {
		return true
	}
	b.produced++
	if b.raceOpen {
		b.raceOpen = false
		b.released++
		if blk.Header.Height > b.rivalHeight {
			b.rivalHeight = blk.Header.Height
		}
		return true // publish immediately: the race-winning block
	}
	b.withheld = append(b.withheld, blk)
	return false
}

// OnInbound reacts to honest-chain progress with the Eyal–Sirer policy:
// lead 1 publishes the private block and opens the race, lead 2
// publishes everything (instant win), deeper leads publish one block.
// Only blocks extending past the public frontier count as progress; a
// same-height fork sibling neither resolves an open race nor costs the
// miner a release.
func (b *SelfishMiningBehavior) OnInbound(_, _ sim.NodeID, payload any, _ int) bool {
	blk, ok := payload.(*chain.Block)
	if !ok {
		return true
	}
	if blk.Header.Height <= b.rivalHeight {
		return true // stale block or fork sibling: no honest progress
	}
	b.rivalHeight = blk.Header.Height
	b.raceOpen = false // real rival progress resolves the race
	switch lead := len(b.withheld); {
	case lead == 1:
		b.raceTip = b.withheld[0].Hash()
		b.releaseN(1)
		b.raceOpen = true
	case lead == 2:
		b.releaseN(2)
	case lead > 2:
		b.releaseN(1)
	}
	return true
}

// releaseN floods the first n withheld blocks in production order and
// advances the public frontier to the deepest published height: once a
// private block is out, honest blocks at or below it are fork siblings,
// not progress.
func (b *SelfishMiningBehavior) releaseN(n int) {
	for _, w := range b.withheld[:n] {
		b.released++
		if h := w.Header.Height; h > b.rivalHeight {
			b.rivalHeight = h
		}
		b.release(w)
	}
	b.withheld = append([]*chain.Block(nil), b.withheld[n:]...)
}

// VoteWithholdBehavior silences a chosen set of representatives: their
// ORV votes are withheld entirely — never tallied locally, never
// broadcast — so their delegated weight simply vanishes from every
// election (§IV-B's quorum denial). Shared by every node hosting a
// withheld representative.
type VoteWithholdBehavior struct {
	HonestBehavior
	reps map[keys.Address]bool
}

// OnVote withholds votes signed by the silenced representatives.
func (b *VoteWithholdBehavior) OnVote(_ sim.NodeID, vote any) bool {
	v, ok := vote.(*orv.Vote)
	if !ok {
		return true
	}
	return !b.reps[v.Rep]
}

// InstallVoteWithholding silences representatives holding at least
// weightFrac of the total voting weight, chosen greedily from the
// highest representative index downward (the observer's low-index reps
// stay honest the longest). It returns the weight fraction actually
// withheld — the sweep label for E17. weightFrac <= 0 installs nothing
// and returns 0, a strict no-op.
func (n *NanoNet) InstallVoteWithholding(weightFrac float64) float64 {
	if weightFrac <= 0 || n.cfg.Reps <= 0 {
		return 0
	}
	weights := n.weights
	total := weights.Total()
	if total == 0 {
		return 0
	}
	target := weightFrac * float64(total)
	b := &VoteWithholdBehavior{reps: make(map[keys.Address]bool)}
	var withheld uint64
	for rep := n.cfg.Reps - 1; rep >= 0 && float64(withheld) < target; rep-- {
		addr := n.ring.Addr(rep)
		w := weights.WeightOf(addr)
		if w == 0 {
			continue
		}
		b.reps[addr] = true
		withheld += w
	}
	if len(b.reps) == 0 {
		return 0
	}
	for _, node := range n.nodes {
		for _, rep := range node.repAccounts {
			if b.reps[n.ring.Addr(rep)] {
				n.rt.SetBehavior(node.id, b)
				break
			}
		}
	}
	return float64(withheld) / float64(total)
}

// BlockCountOf reports a node's lattice block count — E16 compares the
// victim's against a healthy replica's to size the eclipse gap.
func (n *NanoNet) BlockCountOf(idx int) int { return n.nodes[idx].lat.BlockCount() }
