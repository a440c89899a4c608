// The network shell: the plumbing every simulated network shares, written
// once. A network embeds netShell and supplies a historyView of its
// ledgers; in return it inherits the runtime surface (Sim, Net, Runtime,
// SyncStats, ScheduleColdStart, ColdSyncDone, Eclipse), backlog wiring,
// the one fault scheduler and all object movement: receive is the one
// gossip path (dedup, apply, pull on gap, relay), mint and flood the one
// publish path, and serve, sendHistory and broadcastHistory move
// canonical history. Objects are numbered by the network catalog's index
// (internal/catalog), so the dedup bits, the per-object provenance
// columns (creation time, maker, observer confirmation) and every
// replica's state share one id per object. Each object carries its id
// in a memo (catalog.Memo), so the index is probed once per object, at
// its first sight, and not once per delivery. What is left in each network
// file is its apply verdict, its consensus and its reactions.
package netsim

import (
	"time"

	"repro/internal/backlog"
	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/hashx"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// historyView is what a paradigm tells the shell about one node's ledger:
// whether it holds an object, the object and its wire size under a hash,
// the catalog ids of the objects it has attached as the words of its id
// set, its canonical history stream (main chain, account-ordered block
// stream, attachment-ordered vertex stream) as a length plus an accessor,
// and its verdict on a first-seen object from a peer: whether to relay
// it, and the dependency it waits on (zero when none).
type historyView interface {
	has(node sim.NodeID, h hashx.Hash) bool
	object(node sim.NodeID, h hashx.Hash) (obj any, size int, ok bool)
	attachedIDs(node sim.NodeID) []uint64
	canonical(node sim.NodeID) (n int, at func(i int) (obj any, size int))
	apply(node sim.NodeID, id int32, obj any) (relay bool, missing hashx.Hash)
}

// netShell is embedded by chainRuntime, NanoNet and TangleNet.
type netShell struct {
	rt   *NodeRuntime
	sync *syncManager
	// ids is the network catalog's index, which numbers an object at its
	// first sight here or in a ledger; seen is one pooled per-node bit
	// matrix over those ids (soa.go) with two bits per id side by side,
	// so one word answers both of a send's tests: seenBit is the
	// first-seen gossip dedup, heldBit marks a seen object the node's
	// ledger was found to have attached (holds).
	ids  *catalog.Index
	seen *bitRows
	view historyView

	// Provenance columns over catalog ids: when and where an object was
	// minted (born < 0 and maker -1 for objects nobody minted, such as
	// genesis), and which objects the observer has seen confirmed.
	born      []time.Duration
	maker     []int32
	confirmed bitset.Set
}

// init builds the shell in place over a fresh runtime, a disarmed sync
// manager and the network catalog's index ids, with the seen matrix sized
// for the network's node count. In place, because the runtime keeps a
// pointer to the shell for its holds test.
func (sh *netShell) init(s *sim.Simulator, net *sim.Network, nodes int, ids *catalog.Index, view historyView) {
	*sh = netShell{
		rt:   newNodeRuntime(s, net),
		ids:  ids,
		seen: newBitRows(nodes, 2*256),
		view: view,
	}
	sh.sync = newSyncManager(sh.rt, view.has)
	sh.rt.holder = sh
}

// seenBit and heldBit place object id's two bits in a row of seen.
func seenBit(id int32) int32 { return 2 * id }
func heldBit(id int32) int32 { return 2*id + 1 }

// holds reports whether node already holds object id, so that a delivery
// of it would end at its first-seen bit whenever it arrived: the bit is
// set and the node's ledger has the object attached. Only a parked
// object, seen and not attached, ever loses its bit again (unsee); a
// ledger never parks what it has attached (a lattice fork loser is
// detached but not parked), so the answer stays true until the delivery
// arrives. A positive answer is kept as the held
// bit, so each node's ledger is asked once per object, mostly in mark,
// right after it attached the object and while its words are in cache.
func (s *netShell) holds(node sim.NodeID, id int32) bool {
	return s.seen.has(int(node), heldBit(id)) || s.seen.has(int(node), seenBit(id)) && s.mark(node, id)
}

// mark sets object id's held bit at node if its ledger has attached the
// object, and reports whether it did; receive and flood call it once the
// ledger has taken the object.
func (s *netShell) mark(node sim.NodeID, id int32) bool {
	if !hasID(s.view.attachedIDs(node), id) {
		return false
	}
	s.seen.testSet(int(node), heldBit(id))
	return true
}

// id returns h's catalog id, handing one out at first sight.
func (s *netShell) id(h hashx.Hash) int32 { return int32(s.ids.Intern(h)) }

// object is a ledger object as the shell moves it: content that carries
// its id in the network's catalog index (catalog.Memo).
type object interface {
	IDIn(x *catalog.Index) uint32
}

// objectID returns obj's catalog id, handing one out at first sight; the
// id is read from obj's memo after the first call.
func (s *netShell) objectID(obj object) int32 { return int32(obj.IDIn(s.ids)) }

// Sim returns the underlying simulator.
func (s *netShell) Sim() *sim.Simulator { return s.rt.sim }

// Net returns the underlying network (partitions, stats, loss hooks).
func (s *netShell) Net() *sim.Network { return s.rt.net }

// Runtime returns the node runtime, the seam custom Behaviors install
// through.
func (s *netShell) Runtime() *NodeRuntime { return s.rt }

// SyncStats reports the sync manager's pull, serve and eviction counters.
func (s *netShell) SyncStats() SyncStats { return s.sync.stats }

// Eclipse captures frac of a victim node's peer table (E16).
func (s *netShell) Eclipse(victim int, frac float64) *EclipseBehavior {
	return s.rt.InstallEclipse(sim.NodeID(victim), frac)
}

// ScheduleColdStart detaches node at detachAt and rejoins it at rejoinAt,
// range-pulling the canonical history stream from a live peer in windows
// of batch objects (E20's bootstrap scenario). The sync manager arms
// itself at rejoin.
func (s *netShell) ScheduleColdStart(node int, detachAt, rejoinAt time.Duration, batch int) {
	id := sim.NodeID(node)
	s.rt.sim.At(detachAt, func() { s.rt.net.Detach(id) })
	s.rt.sim.At(rejoinAt, func() {
		s.rt.net.Attach(id)
		if target := s.sync.rotateTarget(id, id); target != id {
			s.sync.StartColdSync(id, target, batch)
		}
	})
}

// ColdSyncDone reports how long node's cold-start catch-up took to drain
// the server's history stream; ok is false while it is running.
func (s *netShell) ColdSyncDone(node int) (time.Duration, bool) {
	return s.sync.coldSyncDone(sim.NodeID(node))
}

// receive is the one gossip path for object id, which the handler read
// through objectID: a first-seen object goes to the paradigm's apply, the
// dependency it waits on is pulled from the sender, and it is relayed,
// size unchanged, if apply says so. A repeat delivery costs one memo read
// and one bit test, and most repeats never get here: a copy sent to a
// node that already holds the object is counted at send time and not
// delivered (NodeRuntime.send).
func (s *netShell) receive(node, from sim.NodeID, id int32, obj any, size int) {
	if s.seen.testSet(int(node), seenBit(id)) {
		return
	}
	relay, missing := s.view.apply(node, id, obj)
	s.mark(node, id)
	if missing != hashx.Zero {
		s.sync.Pull(node, missing, from)
	}
	if relay {
		s.rt.relay(node, obj, size, id)
	}
}

// unsee clears node's first-seen bit for object id, so a re-delivery is
// processed, and with it the held bit, which only a seen object may carry.
func (s *netShell) unsee(node sim.NodeID, id int32) {
	s.seen.clear(int(node), seenBit(id))
	s.seen.clear(int(node), heldBit(id))
}

// stamp records object id as made by maker now. Injected objects are
// stamped but not marked seen, so they still apply at their maker when
// delivered back.
func (s *netShell) stamp(id int32, maker sim.NodeID) {
	for int(id) >= len(s.born) {
		s.born = append(s.born, -1)
		s.maker = append(s.maker, -1)
	}
	s.born[id] = s.rt.sim.Now()
	s.maker[id] = int32(maker)
}

// mint stamps a locally made object, numbering it, and marks it seen at
// its maker; the paradigm then applies it locally and floods it under
// the id returned.
func (s *netShell) mint(node sim.NodeID, obj object) int32 {
	id := s.objectID(obj)
	s.stamp(id, node)
	s.seen.testSet(int(node), seenBit(id))
	return id
}

// flood relays a locally made object, minted as id, unless its maker's
// behavior withholds it (OnProduce).
func (s *netShell) flood(node sim.NodeID, id int32, obj any, size int) {
	s.mark(node, id)
	if b := s.rt.BehaviorOf(node); b != nil && !b.OnProduce(node, obj) {
		s.rt.stats.BlocksWithheld++
		return
	}
	s.rt.relay(node, obj, size, id)
}

// bornAt returns when object id was minted; ok is false if nobody did.
func (s *netShell) bornAt(id int32) (at time.Duration, ok bool) {
	if int(id) < len(s.born) && s.born[id] >= 0 {
		return s.born[id], true
	}
	return 0, false
}

// makerOf returns the node that minted object id, or -1.
func (s *netShell) makerOf(id int32) int32 {
	if int(id) < len(s.maker) {
		return s.maker[id]
	}
	return -1
}

// observeConfirmed records the observer's confirmation of object id,
// reporting whether it is the first; a first one adds its latency since
// minting to hist.
func (s *netShell) observeConfirmed(id int32, hist *metrics.Histogram) bool {
	if s.confirmed.Has(uint32(id)) {
		return false
	}
	s.confirmed.Add(uint32(id))
	if at, ok := s.bornAt(id); ok {
		hist.AddDuration(s.rt.sim.Now() - at)
	}
	return true
}

// serve answers the sync wire protocol at node: a single-block pull, a
// range window of the canonical stream, or the trailing reply of a window
// this node pulled. Other payloads are ignored. Each network calls it
// from the default arm of its delivery switch.
func (s *netShell) serve(node, from sim.NodeID, payload any) {
	switch msg := payload.(type) {
	case *blockRequest:
		if obj, size, ok := s.view.object(node, msg.Hash); ok {
			s.sync.stats.BlocksServed++
			s.sync.stats.BytesServed += int64(size)
			s.rt.send(node, from, obj, size, s.objectID(obj.(object)))
		}
	case *rangeRequest:
		n, at := s.view.canonical(node)
		s.sync.serveRange(node, from, msg, n, at)
	case *rangeReply:
		s.sync.onRangeReply(node, msg)
	}
}

// bindBacklog is the one place a node's backlog buffer is wired: bounded
// by the network's BacklogCap/BacklogTTL, and each evicted object's dedup
// bit cleared before the sync manager's reaction.
func bindBacklog[K comparable, V interface {
	comparable
	object
	Hash() hashx.Hash
}](s *netShell, node sim.NodeID, buf *backlog.Buffer[K, V], np NetParams) {
	buf.SetLimit(np.BacklogCap)
	buf.SetTTL(np.BacklogTTL, s.rt.sim.Now)
	buf.OnEvict(func(v V) {
		s.unsee(node, s.objectID(v))
		s.sync.evicted(node, v.Hash())
	})
}

// sendHistory serves node from's canonical history stream to node to, in
// stream order; the receiver's dedup drops what it already holds.
func (s *netShell) sendHistory(from, to int) {
	n, at := s.view.canonical(sim.NodeID(from))
	for i := 0; i < n; i++ {
		obj, size := at(i)
		s.rt.send(sim.NodeID(from), sim.NodeID(to), obj, size, s.objectID(obj.(object)))
	}
}

// broadcastHistory floods node's canonical history stream to every other
// node, object by object — the post-heal IBD stand-in; dedup at the
// receivers keeps the cost one delivery per missing object.
func (s *netShell) broadcastHistory(node int) {
	n, at := s.view.canonical(sim.NodeID(node))
	for i := 0; i < n; i++ {
		obj, size := at(i)
		s.rt.broadcast(sim.NodeID(node), obj, size, s.objectID(obj.(object)))
	}
}

// faultReactor is what a paradigm adds to the fault scheduler: its
// catch-up exchange once a partition heals and once a churned node is
// back on the network. The shell's own healed and rejoined are the
// default; Nano overrides both.
type faultReactor interface {
	healed(groups map[sim.NodeID]int)
	rejoined(node int)
}

// healed is the default post-heal catch-up: one node per former side
// floods its canonical history.
func (s *netShell) healed(groups map[sim.NodeID]int) {
	for _, idx := range groupReps(groups, s.rt.net.NumNodes()) {
		s.broadcastHistory(idx)
	}
}

// rejoined is the default catch-up of a node back on the network: it
// re-floods its stale history (its partition-era objects may still win),
// and a live peer serves it the canonical history.
func (s *netShell) rejoined(node int) {
	s.broadcastHistory(node)
	if live := firstAttachedNode(s.rt.net, s.rt.net.NumNodes(), node); live >= 0 {
		s.sendHistory(live, node)
	}
}

// scheduleFaults is the one fault scheduler: partitions and their heal,
// churn leave and rejoin, loss windows. A non-empty schedule arms the
// sync manager for the run; an empty one schedules nothing and arms
// nothing.
func (s *netShell) scheduleFaults(fs FaultSchedule, r faultReactor) {
	if fs.Empty() {
		return
	}
	s.sync.arm()
	sm, net := s.rt.sim, s.rt.net
	for _, pw := range fs.Partitions {
		sm.At(pw.At, func() { net.Partition(pw.Groups) })
		if pw.HealAt > pw.At {
			sm.At(pw.HealAt, func() {
				net.Heal()
				r.healed(pw.Groups)
			})
		}
	}
	for _, cw := range fs.Churn {
		if cw.Node < 0 || cw.Node >= net.NumNodes() {
			continue
		}
		id := sim.NodeID(cw.Node)
		sm.At(cw.LeaveAt, func() { net.Detach(id) })
		if cw.RejoinAt > cw.LeaveAt {
			sm.At(cw.RejoinAt, func() {
				net.Attach(id)
				r.rejoined(cw.Node)
			})
		}
	}
	for _, lw := range fs.Loss {
		sm.At(lw.At, func() { net.SetLossRate(lw.Rate) })
		if lw.Until > lw.At {
			sm.At(lw.Until, func() { net.SetLossRate(0) })
		}
	}
}
