// Executed double-spend scenarios (E18): where E16/E17 measure an
// adversary's EXPOSURE — victim lag, withheld weight — these drivers
// carry the attack through to a wrong settlement and report whether it
// actually happened. Two combined-fault shapes on each ledger:
//
//   - eclipse + double spend: the victim's peer table is captured, the
//     attacker feeds it a payment the rest of the network never sees,
//     and the honest chain is released on heal;
//   - partition-hidden fork: the conflicting spends mature on opposite
//     sides of a network split, and the heal exchange makes one side
//     discover it has been robbed.
//
// Both run on the PR-4 Behavior seam and the PR-3 FaultSchedule: the
// protocol code never branches on the attack, and a plan that is never
// scheduled leaves the pipeline byte-identical to the honest run.
package netsim

import (
	"time"

	"repro/internal/hashx"
	"repro/internal/lattice"
	"repro/internal/sim"
	"repro/internal/utxo"
)

// ChainDoubleSpendPlan schedules an executed double spend on a chain
// network. At the At instant the attacker signs two conflicting payments
// from the same deterministic input selection: the honest one (to the merchant)
// enters the pools of the victim's side only, the rival (back to an
// attacker account) enters everyone else's. At HealAt the attack window
// closes: the victim's confirmation depth of the honest payment is
// recorded and, in eclipse mode, the captured links are restored and the
// honest chain released (the catch-up exchange churn rejoins use).
type ChainDoubleSpendPlan struct {
	// Victim is the merchant's node — the node whose acceptance and
	// later revert the verdict is about.
	Victim int
	// HonestSide lists the nodes that receive the honest payment; every
	// other node receives the rival. Nil means the victim alone (the
	// eclipse shape). The partition shape lists the victim's group.
	HonestSide []int
	// Attacker, Merchant and Rival are account indexes: the spender, the
	// honest payee, and the attacker-controlled rival payee. Keep them
	// outside the background workload so the conflicting pair stays
	// valid on every node's view.
	Attacker, Merchant, Rival int
	Amount, Fee               uint64
	// Confirmations is the depth the victim requires before accepting
	// the payment (§IV-A's merchant rule).
	Confirmations int
	At, HealAt    time.Duration
	// EclipseFrac > 0 captures that share of the victim's links during
	// [At, HealAt). Zero leaves the links alone — the partition shape
	// schedules its split through FaultSchedule instead.
	EclipseFrac float64
}

// ChainDoubleSpendHandle reports what a scheduled chain double spend
// actually did; fields fill as the events fire.
type ChainDoubleSpendHandle struct {
	// Injected is false if the conflicting pair could not be built.
	Injected bool
	// HonestTx and RivalTx are the conflicting transaction ids.
	HonestTx, RivalTx hashx.Hash
	// AcceptedConf is the victim's confirmation depth of the honest
	// payment at the heal instant — what the merchant trusted.
	AcceptedConf int

	victim, confirmations int
}

// ChainDoubleSpendOutcome is the verdict read after the run.
type ChainDoubleSpendOutcome struct {
	Injected bool
	// Accepted: the victim saw the required confirmation depth while the
	// attack window was open.
	Accepted bool
	// Reverted: the payment was accepted and is no longer on the
	// victim's main chain — the double spend EXECUTED.
	Reverted bool
	// HonestConfirmed and RivalConfirmed report which spend sits on the
	// victim's main chain at the end.
	HonestConfirmed, RivalConfirmed bool
}

// conflictingTxs reports whether the two transactions spend at least one
// common output — the guarantee that mining one invalidates the other.
func conflictingTxs(a, b *utxo.Tx) bool {
	spent := make(map[utxo.Outpoint]bool, len(a.Ins))
	for _, in := range a.Ins {
		spent[in.Prev] = true
	}
	for _, in := range b.Ins {
		if spent[in.Prev] {
			return true
		}
	}
	return false
}

// ScheduleDoubleSpend arms the executed chain double spend (E18). The
// two payments are built against the victim's UTXO view with identical
// amount and fee, so the deterministic largest-first input selection
// picks the same outputs for both — a guaranteed conflict.
func (b *BitcoinNet) ScheduleDoubleSpend(p ChainDoubleSpendPlan) *ChainDoubleSpendHandle {
	h := &ChainDoubleSpendHandle{victim: p.Victim, confirmations: p.Confirmations}
	s := b.rt.sim
	var ecl *EclipseBehavior
	if p.EclipseFrac > 0 {
		b.rt.reserve(sim.NodeID(p.Victim))
	}
	s.At(p.At, func() {
		view := b.ledgers[p.Victim].UTXOSet()
		honest, err := utxo.NewPayment(view, b.ring.Pair(p.Attacker), b.ring.Addr(p.Merchant), p.Amount, p.Fee)
		if err != nil {
			return
		}
		rival, err := utxo.NewPayment(view, b.ring.Pair(p.Attacker), b.ring.Addr(p.Rival), p.Amount, p.Fee)
		if err != nil || !conflictingTxs(honest, rival) {
			return
		}
		h.Injected = true
		h.HonestTx, h.RivalTx = honest.ID(), rival.ID()
		if p.EclipseFrac > 0 {
			ecl = b.rt.InstallEclipse(sim.NodeID(p.Victim), p.EclipseFrac)
		}
		side := map[int]bool{p.Victim: true}
		for _, n := range p.HonestSide {
			side[n] = true
		}
		for i, l := range b.ledgers {
			if side[i] {
				_ = l.SubmitTx(honest)
			} else {
				_ = l.SubmitTx(rival)
			}
		}
	})
	s.At(p.HealAt, func() {
		if !h.Injected {
			return
		}
		h.AcceptedConf = b.ledgers[p.Victim].Confirmations(h.HonestTx)
		if ecl != nil {
			b.rt.LiftEclipse(ecl)
			// Release the honest chain on heal: the victim re-floods its
			// private view (its branch may still win on its own merits)
			// and a live peer serves the canonical history — the
			// exchange a rejoining churn node runs.
			b.rejoined(p.Victim)
		}
	})
	return h
}

// DoubleSpendVerdict reads the victim's final state for a scheduled
// chain double spend. Call after the run completes.
func (b *BitcoinNet) DoubleSpendVerdict(h *ChainDoubleSpendHandle) ChainDoubleSpendOutcome {
	out := ChainDoubleSpendOutcome{Injected: h.Injected}
	if !h.Injected {
		return out
	}
	victim := b.ledgers[h.victim]
	out.Accepted = h.AcceptedConf >= h.confirmations
	out.HonestConfirmed = victim.Confirmations(h.HonestTx) > 0
	out.RivalConfirmed = victim.Confirmations(h.RivalTx) > 0
	out.Reverted = out.Accepted && !out.HonestConfirmed
	return out
}

// suppressHashes drops specific inbound blocks by hash. It is installed
// on the eclipse feeder node so the pay-to-victim send it fabricates
// never enters its own lattice — an honest relay there would leak the
// hidden spend out of the eclipse.
type suppressHashes struct {
	HonestBehavior
	drop map[hashx.Hash]bool
}

// OnInbound drops the suppressed lattice blocks.
func (b *suppressHashes) OnInbound(_, _ sim.NodeID, payload any, _ int) bool {
	if blk, ok := payload.(*lattice.Block); ok {
		return !b.drop[blk.Hash()]
	}
	return true
}

// LatticeDoubleSpendPlan schedules an executed double spend on a Nano
// network. The attacker signs two conflicting sends from the same
// predecessor: the honest one (to the victim node's merchant account) is
// delivered to the victim only, the rival enters the honest side and
// wins its quorum there. On heal the fork becomes visible and the
// representatives' fork election decides which send survives.
type LatticeDoubleSpendPlan struct {
	// Victim is the merchant's owner node.
	Victim int
	// Attacker, Merchant and Rival are account indexes; the Merchant
	// must be owned by the Victim node so the receive issues there. Keep
	// all three outside the background workload.
	Attacker, Merchant, Rival int
	Amount                    uint64
	// Entry is the honest-side node the rival send enters at.
	Entry int
	// HonestFrom is the node that delivers the honest send to the
	// victim; <= 0 defaults to the attacker's owner node. The partition
	// shape must pick a node inside the victim's group — a cross-split
	// unicast is dropped by the partition itself.
	HonestFrom int
	At, HealAt time.Duration
	// Eclipse, when true, fully captures the victim's peer table with
	// the attacker's owner node as the feeder for the whole window, and
	// runs the lattice exchange on heal. When false the caller hides
	// the fork with a FaultSchedule partition instead.
	Eclipse bool
}

// LatticeDoubleSpendHandle reports what the scheduled lattice double
// spend actually did; fields fill as the events fire.
type LatticeDoubleSpendHandle struct {
	Injected bool
	// Honest and Rival are the conflicting send hashes; Root is their
	// shared predecessor (the fork election's subject).
	Honest, Rival, Root hashx.Hash
	// AcceptedAtHeal: the honest send was attached at the victim when
	// the window closed. SettledAtHeal: the merchant had issued its
	// receive by then (the zero-confirmation merchant's "payment done").
	// ConfirmedAtHeal: vote quorum was reached at the victim inside the
	// window — Nano's defense predicts this stays false, because the
	// eclipsed victim cannot hear the representatives.
	AcceptedAtHeal, SettledAtHeal, ConfirmedAtHeal bool

	victim int
}

// LatticeDoubleSpendOutcome is the verdict read after the run.
type LatticeDoubleSpendOutcome struct {
	Injected bool
	// Accepted and Settled mirror the handle's heal-time observations.
	Accepted, Settled bool
	// ConfirmedAtVictim: quorum at the victim inside the window.
	ConfirmedAtVictim bool
	// Reverted: the send the victim accepted — attached at heal, or
	// settled by the merchant's receive inside the window (the receive
	// implies it was attached, even if a leaked rival rolled it back
	// before the heal instant) — is gone from the victim's lattice at
	// the end. The zero-confirmation merchant shipped against a payment
	// that no longer exists: the double spend EXECUTED.
	Reverted bool
	// HonestFinal and RivalFinal report which send sits on the victim's
	// lattice at the end; RivalCemented whether the rival is
	// irreversibly cemented there; Resolved whether the fork election
	// completed at the victim.
	HonestFinal, RivalFinal bool
	RivalCemented           bool
	Resolved                bool
}

// ScheduleExecutedDoubleSpend arms the executed lattice double spend
// (E18). Both sends are crafted offline from the attacker's current head
// as seen by the victim — the attacker's account is quiescent, so every
// replica agrees on that head — and injected by unicast, never processed
// at the attacker's own node first.
func (n *NanoNet) ScheduleExecutedDoubleSpend(p LatticeDoubleSpendPlan) *LatticeDoubleSpendHandle {
	h := &LatticeDoubleSpendHandle{victim: p.Victim}
	feederIdx := n.ownerOf(p.Attacker)
	var (
		ecl        *EclipseBehavior
		prevFeeder Behavior
	)
	if p.Eclipse {
		n.rt.reserve(n.nodes[p.Victim].id)
		n.rt.reserve(n.nodes[feederIdx].id)
	}
	n.rt.sim.At(p.At, func() {
		victim := n.nodes[p.Victim]
		head, ok := victim.lat.HeadBlock(n.ring.Addr(p.Attacker))
		if !ok || head.Balance < p.Amount {
			return
		}
		prev := head.Hash()
		honest, err := lattice.NewForkSend(n.ring.Pair(p.Attacker), prev, head.Balance,
			n.ring.Addr(p.Merchant), p.Amount, head.Representative, n.cfg.WorkBits)
		if err != nil {
			return
		}
		rival, err := lattice.NewForkSend(n.ring.Pair(p.Attacker), prev, head.Balance,
			n.ring.Addr(p.Rival), p.Amount, head.Representative, n.cfg.WorkBits)
		if err != nil {
			return
		}
		h.Injected = true
		h.Honest, h.Rival, h.Root = honest.Hash(), rival.Hash(), prev
		feeder := n.nodes[feederIdx]
		if p.Eclipse {
			ecl = n.rt.InstallEclipseFeeder(victim.id, 1, feeder.id)
			prevFeeder = n.rt.BehaviorOf(feeder.id)
			n.rt.SetBehavior(feeder.id, &suppressHashes{drop: map[hashx.Hash]bool{h.Honest: true}})
		}
		honestFrom := feeder.id
		if p.HonestFrom > 0 && p.HonestFrom < len(n.nodes) {
			honestFrom = n.nodes[p.HonestFrom].id
		}
		entryIdx := p.Entry
		if entryIdx <= 0 || entryIdx >= len(n.nodes) {
			entryIdx = (feederIdx + len(n.nodes)/2) % len(n.nodes)
		}
		n.stamp(n.objectID(honest), feeder.id)
		n.stamp(n.objectID(rival), feeder.id)
		n.rt.Unicast(honestFrom, victim.id, honest, honest.EncodedSize())
		n.rt.Unicast(feeder.id, n.nodes[entryIdx].id, rival, rival.EncodedSize())
	})
	n.rt.sim.At(p.HealAt, func() {
		if !h.Injected {
			return
		}
		victim := n.nodes[p.Victim]
		_, h.AcceptedAtHeal = victim.lat.Get(h.Honest)
		h.SettledAtHeal = victim.issuedReceive[h.Honest]
		h.ConfirmedAtHeal = victim.tracker.Confirmed(h.Honest)
		if ecl != nil {
			n.rt.LiftEclipse(ecl)
			// Restore (not null) the feeder's pre-attack behavior, so the
			// scenario composes with other installed adversaries.
			n.rt.SetBehavior(n.nodes[feederIdx].id, prevFeeder)
			// Release the honest view both ways: the victim's hidden
			// spend spreads (opening fork elections at every
			// representative) and a live peer serves the canonical
			// lattice — the churn-rejoin exchange.
			if live := firstAttachedNode(n.rt.net, len(n.nodes), p.Victim); live >= 0 {
				n.sendHistory(p.Victim, live)
				n.sendHistory(live, p.Victim)
			}
		}
		// Representatives answer the now-visible fork with their decided
		// votes (the confirm-ack): a side that confirmed the rival during
		// the window never re-votes through the open-election path, and
		// the victim's fork election would starve without these.
		for _, node := range n.nodes {
			n.resendDecidedVotes(node)
		}
	})
	return h
}

// ChainDoubleSpendScenario is the canonical E18 chain scenario: a
// 6-node Bitcoin network, victim node 0 under a full eclipse (or split
// into a {0, 1} minority), a 2-confirmation merchant rule, and a heal
// at 135 s that releases the honest chain. It returns the network
// config, the plan to schedule, the partition schedule (nil for the
// eclipse shape) and the run horizon. Core's E18 rows and the netsim
// regression tests both build from this one constructor, so tuning the
// scenario cannot silently diverge the experiment from the tests that
// pin it. Apply the schedule BEFORE arming the plan: at the shared heal
// instant the partition must lift first.
func ChainDoubleSpendScenario(seed int64, partition bool) (BitcoinConfig, ChainDoubleSpendPlan, *FaultSchedule, time.Duration) {
	cfg := BitcoinConfig{
		Net: NetParams{
			Nodes: 6, PeerDegree: 3, Seed: seed,
			MinLatency: 20 * time.Millisecond, MaxLatency: 120 * time.Millisecond,
		},
		BlockInterval: 5 * time.Second, Accounts: 8, InitialBalance: 1 << 20,
	}
	plan := ChainDoubleSpendPlan{
		Victim: 0, Attacker: 7, Merchant: 6, Rival: 5,
		Amount: 1000, Fee: 5, Confirmations: 2,
		At: 10 * time.Second, HealAt: 135 * time.Second,
	}
	var fs *FaultSchedule
	if partition {
		plan.HonestSide = []int{0, 1}
		fs = &FaultSchedule{Partitions: []PartitionWindow{{
			At: 5 * time.Second, HealAt: 135 * time.Second,
			Groups: map[sim.NodeID]int{0: 1, 1: 1},
		}}}
	} else {
		plan.EclipseFrac = 1
	}
	return cfg, plan, fs, 170 * time.Second
}

// LatticeDoubleSpendScenario is the canonical E18 lattice scenario: a
// 10-node, 10-representative Nano network, victim node 0 fed a
// conflicting send under a full feeder eclipse (or a {0, 1} minority
// split), heal at 6 s. Same contract as ChainDoubleSpendScenario.
func LatticeDoubleSpendScenario(seed int64, partition bool) (NanoConfig, LatticeDoubleSpendPlan, *FaultSchedule, time.Duration) {
	cfg := NanoConfig{
		Net: NetParams{
			Nodes: 10, PeerDegree: 3, Seed: seed,
			MinLatency: 10 * time.Millisecond, MaxLatency: 60 * time.Millisecond,
		},
		Accounts: 40, Reps: 10,
	}
	plan := LatticeDoubleSpendPlan{
		Victim: 0, Attacker: 39, Merchant: 30, Rival: 28,
		Amount: 3, Entry: 5,
		At: 2 * time.Second, HealAt: 6 * time.Second,
	}
	var fs *FaultSchedule
	if partition {
		plan.HonestFrom = 1
		fs = &FaultSchedule{Partitions: []PartitionWindow{{
			At: time.Second, HealAt: 6 * time.Second,
			Groups: map[sim.NodeID]int{0: 1, 1: 1},
		}}}
	} else {
		plan.Eclipse = true
	}
	return cfg, plan, fs, 10 * time.Second
}

// ExecutedOutcome reads the victim's final state for a scheduled lattice
// double spend. Call after the run completes.
func (n *NanoNet) ExecutedOutcome(h *LatticeDoubleSpendHandle) LatticeDoubleSpendOutcome {
	out := LatticeDoubleSpendOutcome{Injected: h.Injected}
	if !h.Injected {
		return out
	}
	victim := n.nodes[h.victim]
	out.Accepted = h.AcceptedAtHeal
	out.Settled = h.SettledAtHeal
	out.ConfirmedAtVictim = h.ConfirmedAtHeal
	_, out.HonestFinal = victim.lat.Get(h.Honest)
	_, out.RivalFinal = victim.lat.Get(h.Rival)
	out.RivalCemented = victim.tracker.IsCemented(h.Rival)
	out.Resolved = victim.resolvedForks[forkRootOf(h.Root)]
	out.Reverted = (h.AcceptedAtHeal || h.SettledAtHeal) && !out.HonestFinal
	return out
}
