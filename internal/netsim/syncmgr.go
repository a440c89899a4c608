// The per-node sync manager: the pull side of catching up. Real ledger
// nodes run a sync daemon that notices the node is behind — after churn
// rejoin, a partition heal, or a cold start — and pulls the missing
// history from live peers, instead of hoping the push-side gossip
// happens to re-deliver it. This file is the pull side of that
// machinery for all four networks; the network shell (shell.go) owns the
// serving side, the gossip path that asks for pulls, and the catch-up
// exchanges.
//
// It has one behaviour:
//
//   - Single-block pulls (Pull): when a gossip object arrives before
//     what it depends on, its node asks the sender for the missing
//     hash at once and again every gapRepairDelay, up to
//     maxGapRepairAttempts requests. A pull whose target has detached
//     re-targets to a live peer, and a spent budget re-arms with capped
//     exponential backoff against a rotated target, up to maxPullRearms
//     times. Each live chain is one pull record holding its state, the
//     request it re-sends and its tick, bound once; a finished record
//     goes to a free list for the next Pull. A chain allocates only its
//     request, and a retry nothing.
//   - Range pulls (StartColdSync) drive bootstrap: the puller walks the
//     server's canonical history stream window by window until it has
//     drained it, re-targeting when the server churns out or a window
//     times out.
//
// The manager stays disarmed until a fault schedule or a cold start
// arms it: an armed manager adds events only on paths that were
// already failing, so honest no-fault runs — and their golden tables —
// are untouched.
package netsim

import (
	"time"

	"repro/internal/hashx"
	"repro/internal/sim"
)

// Pull cadence: gapRepairDelay between requests, maxGapRepairAttempts
// per budget, and the re-arm knobs that bound how long one pull lives.
const (
	gapRepairDelay       = 150 * time.Millisecond
	maxGapRepairAttempts = 64
	// maxPullRearms bounds how many exhausted attempt budgets a single
	// missing hash may re-arm; with the capped backoff below one pull
	// can stay alive for minutes of simulated time, not forever.
	maxPullRearms = 8
	// pullRearmCap caps the exponential re-arm backoff.
	pullRearmCap = 2400 * time.Millisecond
)

// blockRequest asks a peer to serve one block by hash.
type blockRequest struct {
	Hash hashx.Hash
}

// blockRequestSize is the modeled wire size of a block request.
const blockRequestSize = hashx.Size + 8

// rangeRequest asks a peer for one window of its canonical history
// stream — the main chain for the chain paradigms, the account-ordered
// lattice block stream for the block-lattice — starting at offset From,
// at most Max blocks.
type rangeRequest struct {
	From int
	Max  int
}

// rangeReply trails a served window: Next is the offset after the last
// block served, Total the length of the server's stream at serve time.
// Next >= Total tells the puller it has drained the server's history;
// anything the server minted after that instant arrives by normal
// gossip, since the puller is attached again.
type rangeReply struct {
	Next  int
	Total int
}

// rangeMsgSize is the modeled wire size of a range request or reply.
const rangeMsgSize = 24

// defaultPullBatch is the range-pull window when the caller passes no
// batch size.
const defaultPullBatch = 32

// Cold-sync supervision: how long the puller waits for a window's
// trailing reply before re-targeting and re-requesting, and how many
// such timeouts it tolerates before declaring the sync failed.
const (
	coldSyncTimeout    = 500 * time.Millisecond
	maxColdSyncRetries = 64
)

// SyncStats counts the sync manager's work — the BehaviorStats-style
// surface experiments read.
type SyncStats struct {
	// SyncPulls counts single-block pull requests sent (gap repair).
	SyncPulls int
	// Retries counts pull requests past the first for the same hash and
	// cold-sync windows re-requested after a timeout.
	Retries int
	// Retargets counts pulls redirected away from a detached target.
	Retargets int
	// Rearms counts exhausted attempt budgets revived with backoff.
	Rearms int
	// RangePulls counts cold-sync window requests sent.
	RangePulls int
	// BlocksServed and BytesServed count blocks served to pullers —
	// both single-block and range windows; BytesServed is the
	// pulled-bytes measure E20 reports.
	BlocksServed int
	BytesServed  int64
	// BacklogEvicted counts objects dropped from bounded backlog buffers
	// (chain orphan pool, lattice gap buffer, tangle parked vertices).
	BacklogEvicted int
}

// pullKey identifies one live single-block pull chain.
type pullKey struct {
	node sim.NodeID
	h    hashx.Hash
}

// pull is one single-block pull chain: the node missing a block, the
// target it asks, how far through its attempt budget and re-arms it is,
// the request it re-sends and its tick, bound once. A record is in
// syncManager.pulling while its chain runs and on the free list after.
type pull struct {
	node    sim.NodeID
	target  sim.NodeID
	attempt int
	rearms  int
	req     *blockRequest
	tick    func()
}

// coldSync is one node's range-pull bootstrap in flight.
type coldSync struct {
	node    sim.NodeID
	target  sim.NodeID
	batch   int
	next    int // stream offset to request next
	seq     int // bumps on every reply; stale timeout checks no-op
	retries int
	started time.Duration
	doneAt  time.Duration
	done    bool
	failed  bool
}

// syncManager runs the pull side of one network simulation. It is
// shared by every node (state is keyed by node id) and stays disarmed —
// contributing zero events — until a fault schedule or StartColdSync
// arms it.
type syncManager struct {
	rt    *NodeRuntime
	stats SyncStats
	armed bool
	// has reports whether a node already holds a block — the paradigm
	// supplies it (lattice attachment for Nano, store membership for
	// the chains).
	has func(node sim.NodeID, h hashx.Hash) bool

	pulling map[pullKey]*pull
	free    []*pull // finished records, reused by the next Pull
	cold    map[sim.NodeID]*coldSync
}

// newSyncManager builds a disarmed manager over the runtime.
func newSyncManager(rt *NodeRuntime, has func(node sim.NodeID, h hashx.Hash) bool) *syncManager {
	return &syncManager{
		rt:      rt,
		has:     has,
		pulling: make(map[pullKey]*pull),
		cold:    make(map[sim.NodeID]*coldSync),
	}
}

// arm enables pulls for the rest of the run. Kept separate from
// construction so honest runs pay no extra events (see package comment).
func (m *syncManager) arm() { m.armed = true }

// evicted is the one reaction to an object dropped from a bounded
// backlog: count it and, when the manager is armed, re-pull it after
// gapRepairDelay from a live peer chosen when the re-pull fires. The
// caller clears the object's dedup bit, so gossip or the pull can
// deliver it again.
func (m *syncManager) evicted(node sim.NodeID, h hashx.Hash) {
	m.stats.BacklogEvicted++
	if !m.armed {
		return
	}
	m.rt.sim.After(gapRepairDelay, func() {
		if target := m.rotateTarget(node, node); target != node {
			m.Pull(node, h, target)
		}
	})
}

// rotateTarget picks a live pull target for node, preferring its own
// peers (in peer-list order, deterministically — no rng draw) and
// falling back to the lowest-indexed attached node. avoid is the target
// that just failed; it is returned unchanged only if no alternative
// exists.
func (m *syncManager) rotateTarget(node, avoid sim.NodeID) sim.NodeID {
	for _, p := range m.rt.net.Peers(node) {
		if p != node && p != avoid && !m.rt.net.IsDetached(p) {
			return p
		}
	}
	for i := 0; i < m.rt.net.NumNodes(); i++ {
		id := sim.NodeID(i)
		if id != node && id != avoid && !m.rt.net.IsDetached(id) {
			return id
		}
	}
	return avoid
}

// Pull starts (at most one) pull chain for a missing block: ask target,
// retry every gapRepairDelay until the block attaches or the attempt
// budget is spent, then re-arm with backoff against a rotated target.
// The first target is the node that sent the gapped block — it
// processed what it relayed, so it either holds the ancestor or is
// repairing it itself; the request walk terminates at the creator.
func (m *syncManager) Pull(node sim.NodeID, missing hashx.Hash, target sim.NodeID) {
	if !m.armed || target == node {
		return
	}
	k := pullKey{node: node, h: missing}
	if m.pulling[k] != nil {
		return
	}
	var p *pull
	if n := len(m.free); n > 0 {
		p, m.free = m.free[n-1], m.free[:n-1]
	} else {
		p = &pull{}
		p.tick = func() { m.pullTick(p) }
	}
	// The request is the one allocation of a chain: the record's last
	// one may still be in flight, and its receiver reads the hash on
	// delivery.
	p.node, p.target, p.attempt, p.rearms = node, target, 0, 0
	p.req = &blockRequest{Hash: missing}
	m.pulling[k] = p
	m.pullTick(p)
}

// pullTick is one step of a pull chain. A chain ends only here, in a tick
// that schedules nothing, so no pending event holds a freed record.
func (m *syncManager) pullTick(p *pull) {
	if m.has(p.node, p.req.Hash) {
		m.endPull(p)
		return
	}
	if p.attempt >= maxGapRepairAttempts {
		// A spent budget revives against a rotated target with capped
		// exponential backoff, so a gap outlives a quiet spell.
		if p.rearms >= maxPullRearms {
			m.endPull(p)
			return
		}
		delay := gapRepairDelay << uint(p.rearms+1)
		if delay > pullRearmCap {
			delay = pullRearmCap
		}
		p.target = m.rotateTarget(p.node, p.target)
		p.attempt = 0
		p.rearms++
		m.stats.Rearms++
		m.rt.sim.After(delay, p.tick)
		return
	}
	if p.attempt > 0 {
		m.stats.Retries++
	}
	// A unicast at a detached target is dropped by the network before
	// it draws any randomness, so a pull at a dead link would burn its
	// budget: redirect it to a live peer.
	if m.rt.net.IsDetached(p.target) && !m.rt.net.IsDetached(p.node) {
		if alt := m.rotateTarget(p.node, p.target); alt != p.target {
			p.target = alt
			m.stats.Retargets++
		}
	}
	m.stats.SyncPulls++
	m.rt.Unicast(p.node, p.target, p.req, blockRequestSize)
	p.attempt++
	m.rt.sim.After(gapRepairDelay, p.tick)
}

// endPull retires a finished chain's record to the free list.
func (m *syncManager) endPull(p *pull) {
	delete(m.pulling, pullKey{node: p.node, h: p.req.Hash})
	m.free = append(m.free, p)
}

// StartColdSync begins a range-pull bootstrap: node walks target's
// canonical history stream window by window (batch blocks per request;
// <= 0 means defaultPullBatch) until it has drained it. Arms the
// manager, so single-block pulls backstop any stream blocks that arrive
// out of order or are minted while the sync runs.
func (m *syncManager) StartColdSync(node, target sim.NodeID, batch int) {
	if batch <= 0 {
		batch = defaultPullBatch
	}
	m.arm()
	cs := &coldSync{node: node, target: target, batch: batch, started: m.rt.sim.Now()}
	m.cold[node] = cs
	m.requestWindow(cs)
}

// requestWindow asks the current target for the next stream window and
// arms the timeout watchdog.
func (m *syncManager) requestWindow(cs *coldSync) {
	if m.rt.net.IsDetached(cs.target) && !m.rt.net.IsDetached(cs.node) {
		if alt := m.rotateTarget(cs.node, cs.target); alt != cs.target {
			cs.target = alt
			m.stats.Retargets++
		}
	}
	m.stats.RangePulls++
	m.rt.Unicast(cs.node, cs.target, &rangeRequest{From: cs.next, Max: cs.batch}, rangeMsgSize)
	seq := cs.seq
	m.rt.sim.After(coldSyncTimeout, func() { m.checkWindowProgress(cs, seq) })
}

// checkWindowProgress fires coldSyncTimeout after a window request; if
// no reply advanced the sync since, it rotates the target and
// re-requests, up to maxColdSyncRetries timeouts.
func (m *syncManager) checkWindowProgress(cs *coldSync, seq int) {
	if cs.done || cs.failed || cs.seq != seq {
		return
	}
	cs.retries++
	if cs.retries > maxColdSyncRetries {
		cs.failed = true
		return
	}
	m.stats.Retries++
	if alt := m.rotateTarget(cs.node, cs.target); alt != cs.target {
		cs.target = alt
		m.stats.Retargets++
	}
	m.requestWindow(cs)
}

// onRangeReply advances a node's cold sync: request the next window, or
// record completion when the server's stream is drained.
func (m *syncManager) onRangeReply(node sim.NodeID, reply *rangeReply) {
	cs := m.cold[node]
	if cs == nil || cs.done || cs.failed {
		return
	}
	cs.seq++
	cs.retries = 0
	if reply.Next >= reply.Total {
		cs.done = true
		cs.doneAt = m.rt.sim.Now()
		return
	}
	cs.next = reply.Next
	m.requestWindow(cs)
}

// serveRange streams one window of the server's canonical history to
// the puller — blockAt returns the payload and modeled wire size at a
// stream offset — followed by the trailing rangeReply.
func (m *syncManager) serveRange(server, to sim.NodeID, req *rangeRequest, total int, blockAt func(int) (any, int)) {
	from, max := req.From, req.Max
	if from < 0 {
		from = 0
	}
	if max <= 0 {
		max = defaultPullBatch
	}
	next := from
	for ; next < total && next < from+max; next++ {
		payload, size := blockAt(next)
		m.stats.BlocksServed++
		m.stats.BytesServed += int64(size)
		m.rt.Unicast(server, to, payload, size)
	}
	m.rt.Unicast(server, to, &rangeReply{Next: next, Total: total}, rangeMsgSize)
}

// coldSyncDone reports when a node's cold sync drained the server
// stream, measured from StartColdSync. ok is false while the sync is
// still running (or failed, or was never started).
func (m *syncManager) coldSyncDone(node sim.NodeID) (time.Duration, bool) {
	cs := m.cold[node]
	if cs == nil || !cs.done {
		return 0, false
	}
	return cs.doneAt - cs.started, true
}
