// The network shell: the plumbing every simulated network shares, written
// once. A network embeds netShell and supplies a historyView of its
// ledgers; in return it inherits the runtime surface (Sim, Net, Runtime,
// SyncStats, ScheduleColdStart, ColdSyncDone, Eclipse), first-seen dedup,
// backlog wiring, the serving side of the sync wire protocol, and the one
// fault scheduler. What is left in each network file is its ledger, its
// consensus and its reaction to gossip.
package netsim

import (
	"time"

	"repro/internal/backlog"
	"repro/internal/hashx"
	"repro/internal/sim"
)

// historyView is what a paradigm tells the shell about one node's ledger:
// whether it holds an object, the object and its wire size under a hash,
// and its canonical history stream (main chain, account-ordered block
// stream, attachment-ordered vertex stream) as a length plus an accessor.
// Single-block and range pulls are served from it.
type historyView interface {
	has(node sim.NodeID, h hashx.Hash) bool
	object(node sim.NodeID, h hashx.Hash) (obj any, size int, ok bool)
	canonical(node sim.NodeID) (n int, at func(i int) (obj any, size int))
}

// netShell is embedded by chainRuntime, NanoNet and TangleNet.
type netShell struct {
	rt   *NodeRuntime
	sync *syncManager
	// ids and seen are the first-seen gossip dedup: dense object ids in
	// first-sight order plus one pooled per-node bit matrix (soa.go).
	ids  *dex[hashx.Hash]
	seen *bitRows
	view historyView
}

// newNetShell builds the shell over a fresh runtime and a disarmed sync
// manager, with the dedup matrix sized for the network's node count.
func newNetShell(s *sim.Simulator, net *sim.Network, nodes int, view historyView) netShell {
	rt := newNodeRuntime(s, net)
	return netShell{
		rt:   rt,
		sync: newSyncManager(rt, view.has),
		ids:  newDex[hashx.Hash](256),
		seen: newBitRows(nodes, 256),
		view: view,
	}
}

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

// markSeen records that node has seen h, reporting whether it already had.
func (s *netShell) markSeen(node sim.NodeID, h hashx.Hash) bool {
	return s.seen.testSet(int(node), s.ids.id(h))
}

// unsee clears node's first-seen bit for h, so a re-delivery is processed.
func (s *netShell) unsee(node sim.NodeID, h hashx.Hash) {
	s.seen.clear(int(node), s.ids.id(h))
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
			s.rt.Unicast(node, from, obj, size)
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
	Hash() hashx.Hash
}](s *netShell, node sim.NodeID, buf *backlog.Buffer[K, V], np NetParams) {
	buf.SetLimit(np.BacklogCap)
	buf.SetTTL(np.BacklogTTL, s.rt.sim.Now)
	buf.OnEvict(func(v V) {
		h := v.Hash()
		s.unsee(node, h)
		s.sync.evicted(node, h, node)
	})
}

// faultReactor is what a paradigm adds to the fault scheduler: its
// catch-up exchange once a partition heals and once a churned node is
// back on the network.
type faultReactor interface {
	healed(groups map[sim.NodeID]int)
	rejoined(node int)
}

// scheduleFaults is the one fault scheduler: partitions and their heal,
// churn leave and rejoin, loss windows. gapRepair arms the sync manager's
// legacy-compatible pulls for the run. An empty schedule schedules
// nothing and arms nothing.
func (s *netShell) scheduleFaults(fs FaultSchedule, r faultReactor, gapRepair bool) {
	if fs.Empty() {
		return
	}
	if gapRepair {
		s.sync.arm()
	}
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
