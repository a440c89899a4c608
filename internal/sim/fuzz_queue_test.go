package sim

// Fuzz oracle for the event queue: a byte-coded schedule / elide /
// deliver / cancel / Run(n) / RunUntil program runs on the
// Simulator and on a naive model — a slice of (at, live, elided) entries
// in schedule order, scanned for the minimum — and pop transcript,
// EventsRun, Pending and Now must agree after every step, and EventsRun
// and Pending also inside every event. A heap sift bug, a wrong
// tie-break, an item filed into the wrong tier or lost moving between
// tiers, a stale entry that executes, a cancel that reaches a reused
// slot, an elided arrival counted early, late, twice or never, or a
// deferred handler run held back, run twice or run out of its (time,
// sequence) place is a divergence.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// modelQueue is the reference: no heap, no tiers, no arena, no
// generations, no bag. An entry's index is its schedule sequence number.
// An elided arrival is an entry that runs before any scheduled event at
// its instant and counts as executed as soon as the clock reaches it.
//
// A delivery under a processing cost is an entry with a message. When it
// runs, its node starts it at busy, the end of the node's work so far: at
// once when that is now, else as a new entry at busy with the next index,
// exactly as if the simulator queued each deferred run alone.
type modelQueue struct {
	now    time.Duration
	at     []time.Duration
	live   []bool
	elided []bool
	msg    []*modelMsg // nil for an At event or an elided arrival
	busy   [procNodes]time.Duration
	ran    uint64   // entries executed
	trace  []string // one "index@time" entry per executed event
	inside []string // EventsRun and Pending as "ran/pending" inside each
	// overtaken: a delivery ran at once while a deferred run of its node
	// waited at the same instant.
	overtaken bool
}

// modelMsg is a delivery to node under cost, or the handler run its
// node's budget deferred. tag is the delivery's index, which the handler
// records whenever it runs.
type modelMsg struct {
	node int
	cost time.Duration
	run  bool
	tag  int
}

func (m *modelQueue) schedule(at time.Duration) { m.add(at, false) }

func (m *modelQueue) elide(at time.Duration) { m.add(at, true) }

// deliver adds a delivery arriving at at to node, which costs the node
// cost to handle.
func (m *modelQueue) deliver(at time.Duration, node int, cost time.Duration) {
	m.add(at, false)
	m.msg[len(m.msg)-1] = &modelMsg{node: node, cost: cost, tag: len(m.msg) - 1}
}

func (m *modelQueue) add(at time.Duration, elided bool) {
	m.at = append(m.at, max(at, m.now))
	m.live = append(m.live, true)
	m.elided = append(m.elided, elided)
	m.msg = append(m.msg, nil)
}

// held returns the live deferred runs of node, by index.
func (m *modelQueue) held(node int) (idx []int) {
	for i, d := range m.msg {
		if m.live[i] && d != nil && d.run && d.node == node {
			idx = append(idx, i)
		}
	}
	return idx
}

// reached counts the live elided arrivals the clock has reached: already
// executed as far as EventsRun and Pending are concerned.
func (m *modelQueue) reached() (n int) {
	for i, l := range m.live {
		if l && m.elided[i] && m.at[i] <= m.now {
			n++
		}
	}
	return n
}

func (m *modelQueue) eventsRun() uint64 { return m.ran + uint64(m.reached()) }

func (m *modelQueue) pending() (n int) {
	for _, l := range m.live {
		if l {
			n++
		}
	}
	return n - m.reached()
}

// before orders entries i and j: time, then elided arrivals first, then
// index.
func (m *modelQueue) before(i, j int) bool {
	if m.at[i] != m.at[j] {
		return m.at[i] < m.at[j]
	}
	if m.elided[i] != m.elided[j] {
		return m.elided[i]
	}
	return i < j
}

// drain executes live entries in order until limit have run (0 = no
// limit) or the next one lies after until.
func (m *modelQueue) drain(limit uint64, until time.Duration) {
	for n := uint64(0); limit == 0 || n < limit; n++ {
		best := -1
		for i, l := range m.live {
			if l && (best < 0 || m.before(i, best)) {
				best = i
			}
		}
		if best < 0 || m.at[best] > until {
			return
		}
		m.live[best] = false
		m.now = m.at[best]
		m.ran++
		switch d := m.msg[best]; {
		case m.elided[best]:
		case d == nil:
			m.record(best)
		case d.run:
			m.record(d.tag)
		default:
			start := max(m.now, m.busy[d.node])
			m.busy[d.node] = start + d.cost
			if start > m.now {
				m.add(start, false)
				m.msg[len(m.msg)-1] = &modelMsg{node: d.node, run: true, tag: d.tag}
				break
			}
			for _, j := range m.held(d.node) {
				m.overtaken = m.overtaken || m.at[j] == m.now
			}
			m.record(d.tag)
		}
	}
}

// record notes a handler or callback run for entry tag.
func (m *modelQueue) record(tag int) {
	m.trace = append(m.trace, fmt.Sprintf("%d@%v", tag, m.now))
	m.inside = append(m.inside, fmt.Sprintf("%d/%d", m.eventsRun(), m.pending()))
}

// sameTrace fails unless the simulator's pop transcript is the model's.
func sameTrace(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d events popped, model %d:\nsim   %v\nmodel %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop[%d] = %q, model %q", i, got[i], want[i])
		}
	}
}

// Program encoding, one op per byte:
//
//	0–7     RunUntil(now + untilSpans[op])
//	8–15    Run(op % 8)
//	16–19   Cancel(forgedIDs[op-16]): ids no schedule returned
//	20–51   Cancel an earlier id (Run(op % 8) while there is none)
//	52      Send to node b&3 after procSpans[b>>5], costing it
//	        procSpans[b>>2&7] under the processing model, where b is the
//	        next byte (deliverOp); a last byte does nothing. A costed
//	        delivery is the only way a node gets busy.
//	53–55   as 20–51
//	56–59   elide at an absolute time on grid op-56, k steps of it given
//	        by the next byte mod 48 (elideOp); a last byte does nothing
//	60–63   as 20–51
//	64–255  At an absolute time on one of four grids (schedOp), from
//	        the current bucket through minutes ahead
var (
	untilSpans = [8]time.Duration{0, time.Millisecond, 5 * time.Millisecond, 40 * time.Millisecond,
		150 * time.Millisecond, 700 * time.Millisecond, 4 * time.Second, 75 * time.Second}
	schedGrids = [4]time.Duration{time.Millisecond, 7 * time.Millisecond, 250 * time.Millisecond, 5 * time.Second}
	forgedIDs  = [4]EventID{0, EventID(math.MaxUint32) << 32, ^EventID(0), EventID(1<<31)<<32 | 1}
	// procSpans are the link delays and processing costs of deliveries:
	// zero twice, within a bucket, across a few, across the ring and past
	// it.
	procSpans = [8]time.Duration{0, 0, time.Millisecond, 3 * time.Millisecond, 40 * time.Millisecond,
		150 * time.Millisecond, 300 * time.Millisecond, 6 * time.Second}
)

// procNodes is the number of nodes on the program's network.
const procNodes = 4

// procMsg is a delivery's payload: the model index the handler records
// and the cost the processing model charges.
type procMsg struct {
	tag  int
	cost time.Duration
}

// sizeDelay is a link model that delays each message by its size in
// nanoseconds and loses none.
type sizeDelay struct{}

func (sizeDelay) Delay(_ *rand.Rand, _, _ NodeID, size int) (time.Duration, bool) {
	return time.Duration(size), true
}

// deliverOp encodes "send to node k after procSpans[delay], costing
// procSpans[cost]", the two bytes 52, b.
func deliverOp(k, cost, delay int) []byte { return []byte{52, byte(k | cost<<2 | delay<<5)} }

// schedOp encodes "schedule at k steps of grid g" (k < 48). The grids
// overlap (1 ms × 28 = 7 ms × 4; 250 ms × 20 = 5 s), so equal times
// arise from different bytes as well as repeated ones.
func schedOp(g, k int) byte { return byte(64 + 48*g + k) }

// elideOp encodes "elide at k steps of grid g", the two bytes 56+g, k.
func elideOp(g, k int) []byte { return []byte{byte(56 + g), byte(k)} }

// tierOf names the tier the simulator files an item scheduled at at
// into, by the same rule push applies.
func tierOf(s *Simulator, at time.Duration) int {
	switch b := bucketOf(max(at, s.now)); {
	case b <= s.cur:
		return 0
	case b < s.cur+ringBuckets:
		return 1
	}
	return 2
}

// queuedRuns counts the live deferred runs of node to in the queue's
// tiers: at most its held chain's head, however deep the chain.
func queuedRuns(s *Simulator, to int32) (n int) {
	count := func(items []heapItem) {
		for _, it := range items {
			if it.slot < 0 {
				continue
			}
			if sl := s.slots.at(it.slot); sl.gen == it.gen && sl.kind == kindHandler && sl.to == to {
				n++
			}
		}
	}
	count(s.near)
	count(s.far)
	for i := range s.ring {
		if s.occ[i>>6]&(1<<(i&63)) == 0 {
			continue
		}
		for c := s.ring[i].head; c >= 0; c = s.chunks.at(c).next {
			k := s.chunks.at(c)
			count(k.items[:k.n])
		}
	}
	return n
}

// reach records which queue situations a program drove the simulator
// into, so the seed corpus can be held to covering each of them.
type reach struct {
	ring      bool // an item filed into the ring
	farAhead  bool // an item filed into far, seconds or more past now
	minutes   bool // an item filed a minute or more past now
	stopShort bool // RunUntil left cur past now's bucket, then an item was filed below cur
	crossTie  bool // an item filed with the same time as a live one filed into another tier
	farToRing bool // a live item filed into far came within the ring's span, a later item behind it
	zeroID    bool // Cancel(0) with a live event in slot 0
	forged    bool // Cancel of an id whose slot field was never issued
	elideBag  bool // an elided arrival filed straight into the current bucket's bag
	elideRing bool // an elided arrival filed into the ring
	elideFar  bool // an elided arrival filed into far
	elideTie  bool // an elided arrival filed with the same time as a live scheduled event
	elideCut  bool // a RunUntil cut left an elided arrival of its own bucket uncounted
	elideNow  bool // an elided arrival clamped to now on an empty queue
	heldTie   bool // two deferred runs waited for one instant
	overtaken bool // a delivery ran at once past a zero-cost deferred run of its node at the same instant
	heldLong  bool // one node's backlog held more deferred runs than a chunk
	heldCut   bool // a RunUntil cut ran part of a node's backlog and left the rest
	heldFar   bool // the queued head of a node's backlog lay in far
}

func (r *reach) or(o reach) {
	r.ring, r.farAhead, r.minutes = r.ring || o.ring, r.farAhead || o.farAhead, r.minutes || o.minutes
	r.stopShort, r.crossTie, r.farToRing = r.stopShort || o.stopShort, r.crossTie || o.crossTie, r.farToRing || o.farToRing
	r.zeroID, r.forged = r.zeroID || o.zeroID, r.forged || o.forged
	r.elideBag, r.elideRing, r.elideFar = r.elideBag || o.elideBag, r.elideRing || o.elideRing, r.elideFar || o.elideFar
	r.elideTie, r.elideCut, r.elideNow = r.elideTie || o.elideTie, r.elideCut || o.elideCut, r.elideNow || o.elideNow
	r.heldTie, r.overtaken, r.heldLong = r.heldTie || o.heldTie, r.overtaken || o.overtaken, r.heldLong || o.heldLong
	r.heldCut, r.heldFar = r.heldCut || o.heldCut, r.heldFar || o.heldFar
}

// runPopProgram runs ops on a Simulator and on the model in lockstep,
// failing at the first divergence, and reports what the program reached.
func runPopProgram(t *testing.T, ops []byte) (r reach) {
	t.Helper()
	s := New(1)
	m := &modelQueue{}
	var trace, inside []string
	var ids []EventID
	var filed []int // tier each op filed its event into; -1 for a deferred run
	short := false  // the last RunUntil left cur past now's bucket
	net := NewNetwork(s, sizeDelay{})
	for k := 0; k < procNodes; k++ {
		net.AddNode(func(_ NodeID, payload any, _ int) {
			trace = append(trace, fmt.Sprintf("%d@%v", payload.(procMsg).tag, s.Now()))
			inside = append(inside, fmt.Sprintf("%d/%d", s.EventsRun(), s.Pending()))
		})
	}
	net.SetProcessing(func(_ NodeID, payload any, _ int) time.Duration { return payload.(procMsg).cost })
	check := func(step int) {
		t.Helper()
		if s.EventsRun() != m.eventsRun() || s.Pending() != m.pending() || s.Now() != m.now {
			t.Fatalf("after op %d: ran=%d pending=%d now=%v, model ran=%d pending=%d now=%v",
				step, s.EventsRun(), s.Pending(), s.Now(), m.eventsRun(), m.pending(), m.now)
		}
		sameTrace(t, trace, m.trace)
		sameTrace(t, inside, m.inside)
		for k := 0; k < procNodes; k++ {
			if got, want := queuedRuns(s, int32(k)), min(len(m.held(k)), 1); got != want {
				t.Fatalf("after op %d: node %d has %d deferred runs queued, want %d", step, k, got, want)
			}
		}
	}
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		switch {
		case op >= 56 && op < 60:
			if i+1 == len(ops) {
				break
			}
			i++
			g := int(op - 56)
			at := time.Duration(int(ops[i])%48) * schedGrids[g]
			tier := tierOf(s, at)
			for j, l := range m.live {
				r.elideTie = r.elideTie || l && !m.elided[j] && m.at[j] == max(at, s.now)
			}
			r.elideNow = r.elideNow || at < s.now && m.pending() == 0
			r.elideBag = r.elideBag || tier == 0
			r.elideRing = r.elideRing || tier == 1
			r.elideFar = r.elideFar || tier == 2
			s.elide(at)
			m.elide(at)
			filed = append(filed, tier)
			ids = append(ids, 0) // keeps ids aligned with the model's indices
		case op == 52:
			if i+1 == len(ops) {
				break
			}
			i++
			b := ops[i]
			k, span := int(b&3), procSpans[b>>2&7]
			at := s.Now() + procSpans[b>>5]
			filed = append(filed, tierOf(s, at))
			ids = append(ids, 0)
			net.Send(NodeID(k), NodeID(k), procMsg{tag: len(m.at), cost: span}, int(procSpans[b>>5]))
			m.deliver(at, k, span)
		case op >= 64:
			v := int(op - 64)
			at := time.Duration(v%48) * schedGrids[v/48]
			tier := tierOf(s, at)
			for j, l := range m.live {
				r.crossTie = r.crossTie || l && m.at[j] == max(at, s.now) && filed[j] >= 0 && filed[j] != tier
			}
			ahead := at - s.now
			r.ring = r.ring || tier == 1
			r.farAhead = r.farAhead || tier == 2 && ahead >= time.Second
			r.minutes = r.minutes || tier == 2 && ahead >= time.Minute
			r.stopShort = r.stopShort || short && bucketOf(max(at, s.now)) < s.cur
			tag := len(ids)
			ids = append(ids, s.At(at, func() {
				trace = append(trace, fmt.Sprintf("%d@%v", tag, s.Now()))
				inside = append(inside, fmt.Sprintf("%d/%d", s.EventsRun(), s.Pending()))
			}))
			filed = append(filed, tier)
			m.schedule(at)
		case op >= 16 && op < 20:
			r.zeroID = r.zeroID || op == 16 && s.slots.n > 0 && s.slots.at(0).kind != kindFree
			r.forged = r.forged || op > 16
			s.Cancel(forgedIDs[op-16])
		case op >= 20 && len(ids) > 0:
			// Cancel any earlier id: pending, already run (its slot
			// possibly reused since) or already canceled. An elided
			// arrival has no id, and canceling it is no op.
			victim := int(op) % len(ids)
			if m.elided[victim] || m.msg[victim] != nil {
				break // deliveries and deferred runs have no id either
			}
			s.Cancel(ids[victim])
			m.live[victim] = false
		case op >= 8:
			s.Run(uint64(op % 8))
			m.drain(uint64(op%8), math.MaxInt64)
		default:
			until := s.Now() + untilSpans[op]
			var before [procNodes][]int
			for k := range before {
				before[k] = m.held(k)
			}
			s.RunUntil(until)
			m.drain(0, until)
			m.now = max(m.now, until)
			short = s.cur > bucketOf(s.now)
			for j, l := range m.live {
				r.elideCut = r.elideCut || l && m.elided[j] && bucketOf(m.at[j]) == bucketOf(until)
			}
			for k, was := range before {
				r.heldCut = r.heldCut || len(was) > 0 && !m.live[was[0]] && len(m.held(k)) > 0
			}
		}
		for len(ids) < len(m.at) { // deferred runs the op's events made
			ids = append(ids, 0)
			filed = append(filed, -1)
		}
		r.overtaken = r.overtaken || m.overtaken
		heldAt := map[time.Duration]bool{}
		for k := 0; k < procNodes; k++ {
			held := m.held(k)
			r.heldLong = r.heldLong || len(held) > chunkItems
			for _, j := range held {
				r.heldTie = r.heldTie || heldAt[m.at[j]]
				heldAt[m.at[j]] = true
			}
		}
		for _, it := range s.far {
			r.heldFar = r.heldFar || it.slot >= 0 && s.slots.at(it.slot).kind == kindHandler
		}
		last := int64(-1) // the latest live bucket
		for j, l := range m.live {
			if l {
				last = max(last, bucketOf(m.at[j]))
			}
		}
		for j, l := range m.live {
			r.farToRing = r.farToRing || l && filed[j] == 2 && tierOf(s, m.at[j]) == 1 && bucketOf(m.at[j]) < last
		}
		check(i)
	}
	s.Run(0)
	m.drain(0, math.MaxInt64)
	check(len(ops))
	return r
}

// popSeeds is FuzzPopOrder's corpus; TestPopOrderSeedsReachEveryTier
// holds it to reaching every situation reach names.
var popSeeds = [][]byte{
	{1, 2, 3, 4, 5, 6, 7, 8},
	{0, 0, 0, 0, 255, 255, 128, 7, 9, 200},
	{250, 250, 251, 252, 1, 1, 1, 90, 90, 90, 90, 13},
	// Ring, then a RunUntil short of the ring head and a tie filed into
	// near against it; zero and forged cancels around a live slot 0.
	{schedOp(1, 20), 16, 17, 18, 19, schedOp(0, 3), 3, schedOp(1, 20), schedOp(0, 41), 9, 4, 12},
	// Far: 5 s twice from two grids, a RunUntil that stops 1 s short and
	// pulls both into near, then 5 s again and 4.25 s below them; then
	// minutes ahead and a cancel of one far tie.
	{schedOp(3, 1), schedOp(2, 20), 6, schedOp(2, 20), schedOp(2, 17), schedOp(3, 40), 21, 7, schedOp(3, 45), 15},
	// Far to ring: 280 ms is past the ring at 0; running 70 ms makes it
	// fit, and 329 ms then lands in the ring behind it.
	{schedOp(1, 40), schedOp(1, 10), 9, schedOp(1, 47)},
	// Elided arrivals: at 0 into the bag, at 3 ms into the ring tied with
	// a scheduled event, 10 s into far, and 22 ms past a RunUntil cut at
	// 21 ms in the same bucket; then Run(1) steps and a full drain.
	slices.Concat(elideOp(0, 0), []byte{schedOp(0, 3)}, elideOp(0, 3), elideOp(3, 2), elideOp(0, 22),
		[]byte{2, 2, 2, 2, 1, 9, 9, 8}),
	// A RunUntil 75 s past an empty queue, then an elided arrival at a
	// past time: clamped to now, it counts at once.
	slices.Concat([]byte{schedOp(0, 1), 7}, elideOp(0, 1), []byte{0}),
	// Deferred runs: 40 ms deliveries at 0 make nodes 0, 1 and 3 busy to
	// 40 ms, and node 1 defers a 3 ms run to 40 ms. Node 0 defers a 3 ms
	// run to 40 ms and a zero-cost one behind it to 43 ms, tied with node
	// 1's zero-cost run at 43 ms: each is pushed when its node's 40 ms run
	// ends, node 1's first, so each must keep its own sequence number.
	// Node 3's delivery sent for 40 ms runs at once there, past the
	// zero-cost run deferred to 40 ms after it was sent.
	slices.Concat(deliverOp(0, 4, 0), deliverOp(1, 4, 0), deliverOp(1, 3, 0), deliverOp(3, 4, 0), deliverOp(3, 0, 4),
		deliverOp(0, 3, 0), deliverOp(0, 0, 0), deliverOp(1, 0, 0), deliverOp(3, 0, 0),
		[]byte{schedOp(0, 43), 0, 9, 9, 3, 9, 10}),
	// A 23-run backlog on node 2, two chunks long, behind a 40 ms
	// delivery and cut by a RunUntil after its first run; node 3's
	// backlog, behind a 6 s delivery, queued in far.
	slices.Concat(deliverOp(2, 4, 0), bytes.Repeat(deliverOp(2, 2, 0), 23), deliverOp(3, 7, 0),
		deliverOp(3, 0, 0), deliverOp(3, 5, 1), []byte{schedOp(0, 41), 0, 3, 2, 6, 7}),
}

func TestPopOrderSeedsReachEveryTier(t *testing.T) {
	var all reach
	for _, ops := range popSeeds {
		all.or(runPopProgram(t, ops))
	}
	if all != (reach{true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true, true}) {
		t.Fatalf("seed corpus reaches %+v; every field must be true", all)
	}
}

func FuzzPopOrder(f *testing.F) {
	for _, ops := range popSeeds {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		// The committed page-crossing seed needs more than one slot
		// page of schedules; much longer programs only slow the model's
		// quadratic scan.
		if len(ops) > 1280 {
			t.Skip("longer programs only slow the model's quadratic scan")
		}
		runPopProgram(t, ops)
	})
}
