package sim

// Fuzz oracle for the event queue: a byte-coded schedule / elide /
// cancel / Run(n) / RunUntil program runs on the Simulator and on a naive
// model — a slice of (at, live, elided) entries in schedule order,
// scanned for the minimum — and pop transcript, EventsRun, Pending and
// Now must agree after every step, and EventsRun and Pending also inside
// every event. A heap sift bug, a wrong tie-break, an item filed into the
// wrong tier or lost moving between tiers, a stale entry that executes, a
// cancel that reaches a reused slot, or an elided arrival counted early,
// late, twice or never is a divergence.

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
)

// modelQueue is the reference: no heap, no tiers, no arena, no
// generations, no bag. An entry's index is its schedule sequence number.
// An elided arrival is an entry that runs before any scheduled event at
// its instant and counts as executed as soon as the clock reaches it.
type modelQueue struct {
	now    time.Duration
	at     []time.Duration
	live   []bool
	elided []bool
	ran    uint64   // entries executed
	trace  []string // one "index@time" entry per executed event
	inside []string // EventsRun and Pending as "ran/pending" inside each
}

func (m *modelQueue) schedule(at time.Duration) { m.add(at, false) }

func (m *modelQueue) elide(at time.Duration) { m.add(at, true) }

func (m *modelQueue) add(at time.Duration, elided bool) {
	m.at = append(m.at, max(at, m.now))
	m.live = append(m.live, true)
	m.elided = append(m.elided, elided)
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
		if !m.elided[best] {
			m.trace = append(m.trace, fmt.Sprintf("%d@%v", best, m.now))
			m.inside = append(m.inside, fmt.Sprintf("%d/%d", m.eventsRun(), m.pending()))
		}
	}
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
//	20–55   Cancel an earlier id (Run(op % 8) while there is none)
//	56–59   elide at an absolute time on grid op-56, k steps of it given
//	        by the next byte mod 48 (elideOp); a last byte does nothing
//	60–63   as 20–55
//	64–255  At an absolute time on one of four grids (schedOp), from
//	        the current bucket through minutes ahead
var (
	untilSpans = [8]time.Duration{0, time.Millisecond, 5 * time.Millisecond, 40 * time.Millisecond,
		150 * time.Millisecond, 700 * time.Millisecond, 4 * time.Second, 75 * time.Second}
	schedGrids = [4]time.Duration{time.Millisecond, 7 * time.Millisecond, 250 * time.Millisecond, 5 * time.Second}
	forgedIDs  = [4]EventID{0, EventID(math.MaxUint32) << 32, ^EventID(0), EventID(1<<31)<<32 | 1}
)

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
}

func (r *reach) or(o reach) {
	r.ring, r.farAhead, r.minutes = r.ring || o.ring, r.farAhead || o.farAhead, r.minutes || o.minutes
	r.stopShort, r.crossTie, r.farToRing = r.stopShort || o.stopShort, r.crossTie || o.crossTie, r.farToRing || o.farToRing
	r.zeroID, r.forged = r.zeroID || o.zeroID, r.forged || o.forged
	r.elideBag, r.elideRing, r.elideFar = r.elideBag || o.elideBag, r.elideRing || o.elideRing, r.elideFar || o.elideFar
	r.elideTie, r.elideCut, r.elideNow = r.elideTie || o.elideTie, r.elideCut || o.elideCut, r.elideNow || o.elideNow
}

// runPopProgram runs ops on a Simulator and on the model in lockstep,
// failing at the first divergence, and reports what the program reached.
func runPopProgram(t *testing.T, ops []byte) (r reach) {
	t.Helper()
	s := New(1)
	m := &modelQueue{}
	var trace, inside []string
	var ids []EventID
	var filed []int // tier each event was filed into
	short := false  // the last RunUntil left cur past now's bucket
	check := func(step int) {
		t.Helper()
		if s.EventsRun() != m.eventsRun() || s.Pending() != m.pending() || s.Now() != m.now {
			t.Fatalf("after op %d: ran=%d pending=%d now=%v, model ran=%d pending=%d now=%v",
				step, s.EventsRun(), s.Pending(), s.Now(), m.eventsRun(), m.pending(), m.now)
		}
		sameTrace(t, trace, m.trace)
		sameTrace(t, inside, m.inside)
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
		case op >= 64:
			v := int(op - 64)
			at := time.Duration(v%48) * schedGrids[v/48]
			tier := tierOf(s, at)
			for j, l := range m.live {
				r.crossTie = r.crossTie || l && m.at[j] == max(at, s.now) && filed[j] != tier
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
			r.zeroID = r.zeroID || op == 16 && len(s.slots) > 0 && s.slots[0].kind != kindFree
			r.forged = r.forged || op > 16
			s.Cancel(forgedIDs[op-16])
		case op >= 20 && len(ids) > 0:
			// Cancel any earlier id: pending, already run (its slot
			// possibly reused since) or already canceled. An elided
			// arrival has no id, and canceling it is no op.
			victim := int(op) % len(ids)
			if m.elided[victim] {
				break
			}
			s.Cancel(ids[victim])
			m.live[victim] = false
		case op >= 8:
			s.Run(uint64(op % 8))
			m.drain(uint64(op%8), math.MaxInt64)
		default:
			until := s.Now() + untilSpans[op]
			s.RunUntil(until)
			m.drain(0, until)
			m.now = max(m.now, until)
			short = s.cur > bucketOf(s.now)
			for j, l := range m.live {
				r.elideCut = r.elideCut || l && m.elided[j] && bucketOf(m.at[j]) == bucketOf(until)
			}
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
}

func TestPopOrderSeedsReachEveryTier(t *testing.T) {
	var all reach
	for _, ops := range popSeeds {
		all.or(runPopProgram(t, ops))
	}
	if all != (reach{true, true, true, true, true, true, true, true, true, true, true, true, true, true}) {
		t.Fatalf("seed corpus reaches %+v; every field must be true", all)
	}
}

func FuzzPopOrder(f *testing.F) {
	for _, ops := range popSeeds {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			t.Skip("longer programs only slow the model's quadratic scan")
		}
		runPopProgram(t, ops)
	})
}
