// Package sim is a deterministic discrete-event simulator with a virtual
// clock. All whole-network experiments run on it: Proof-of-Work block races
// (paper §III-A), soft forks caused by propagation delay (§IV-A, Fig. 4),
// Nano vote gossip (§IV-B) and the throughput experiments of §VI, where
// "real world limitations, e.g., network conditions and processing power"
// are exactly the latency and per-node processing budgets modeled here.
//
// The simulator is single-threaded: events execute one at a time in
// (time, sequence) order, so runs are reproducible bit-for-bit from a seed.
//
// The event queue is allocation-free on its hot path: pending events
// live in a reusable slot arena of 40-byte slots, and network deliveries
// are stored as slot fields rather than closures. The slot arena and the
// queue's chunk arena grow by fixed pages of about 64 KB, so growth
// allocates one page and copies nothing. The queue's entries are split by
// 2²⁰-ns bucket (about 1 ms) into three tiers: a small binary heap for
// the current bucket and any earlier one, a ring of 256 unsorted buckets
// (about 268 ms, the span of link delays) and a heap for anything later.
// Only the current bucket is ever ordered, so the heap that every pop
// walks stays cache-sized however deep the queue is. An EventID is a
// slot index plus a generation counter, so Cancel is an O(1) generation
// check — no per-event map, and canceling an event that already ran (its
// slot's generation has moved on) is a safe no-op.
//
// A handler run that a node's processing budget defers (Network.
// SetProcessing) waits in that node's own held chain, a FIFO in the
// queue's chunk arena, and only the first run of each busy node's chain
// is in the queue. The runs keep the slots and sequence numbers they took
// at delivery, so pop order is exactly as if each were queued alone.
//
// A delivery the sender knows the receiver will drop unseen
// (Network.SendDuplicate) is counted, not scheduled: it draws its loss
// and delay like any send, but enters the queue as an elided arrival, a
// bare time with no slot and no sequence number. Once its bucket is
// current it waits in an unordered slice beside the near heap, never in
// it. It runs nothing. It counts as an executed event once the clock
// reaches its time, before any event scheduled for the same instant, so
// EventsRun, Pending, Run and Now read as if the delivery had run and
// done nothing.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"
)

// EventID identifies a scheduled event so it can be canceled. It packs
// the event's arena slot plus one (high 32 bits) and that slot's
// generation at schedule time (low 32 bits); the generation changes when
// the event runs or is canceled, which is what makes stale cancels
// no-ops. The zero EventID names no event, so an unset id cancels
// nothing.
type EventID uint64

// slotKind says what an occupied arena slot executes.
type slotKind uint8

const (
	kindFree    slotKind = iota // slot is on the free list
	kindFn                      // call the func() in payload
	kindDeliver                 // network delivery: run net.deliver
	kindHandler                 // deferred handler run after a busy wait
)

// slot is one arena entry, 40 bytes. Network deliveries carry their
// operands here instead of capturing them in a closure, which removes the
// per-message allocation under every gossip flood. A kindFn slot's
// function rides in payload: a func value is pointer-shaped, so storing
// it allocates nothing.
type slot struct {
	payload  any
	size     int
	from, to int32 // NodeIDs; AddNode keeps them in range
	gen      uint32
	kind     slotKind
	net      uint8 // the delivering network's index in Simulator.nets
}

// heapItem is one pending-queue entry. Ordering state (time, sequence)
// lives here by value; the slot holds only what the event executes. In
// the ring and far tiers an elided arrival is an item with slot -1.
type heapItem struct {
	at   time.Duration
	seq  uint64
	slot int32
	gen  uint32
}

func itemLess(a, b heapItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Queue geometry. An item's bucket is at >> bucketShift (about 1.05 ms);
// the ring holds the ringBuckets-1 buckets after the current one (about
// 268 ms), which covers the link delays the network models draw. Items
// are never negative-time: schedule clamps to now, and now starts at 0.
const (
	bucketShift = 20
	ringBuckets = 256 // a power of two
	chunkItems  = 21
)

func bucketOf(at time.Duration) int64 { return int64(at) >> bucketShift }

// chunk is a fixed block of one ring bucket's unsorted chain, 512 bytes,
// so an arena page holds 128 of them and no slack. Chunks come from one
// arena and return to its free list, linked through next; -1 ends a chain
// or the free list.
type chunk struct {
	items [chunkItems]heapItem
	n     int32
	next  int32
}

// chain is a list of chunks: its first and last chunk. A ring bucket's
// chain is meaningful only while the bucket's occupancy bit is set; a
// node's held chain (processor) is empty when its head is -1.
type chain struct{ head, tail int32 }

// Simulator owns the virtual clock, the pending-event queue and the seeded
// random source shared by the whole simulation.
//
// The queue's tiers, with cur the current bucket:
//   - near: a binary min-heap on (at, seq) of every item whose bucket is
//     at or before cur;
//   - ring: buckets cur+1 … cur+ringBuckets-1, each an unsorted chain
//     at ring[bucket % ringBuckets], with occ marking the non-empty ones;
//   - far: a binary min-heap of every later item.
//
// A handler run that a node's processing budget defers waits outside the
// tiers, in that node's held chain (see processor): only the first run of
// each busy node's chain is in the queue, and popping it pushes the next.
//
// Slots and chunks live in paged arenas. The two heaps stay slices
// grown by append: a heap over pages would be a second heap
// implementation, for a few MB of growth on the deepest workloads.
//
// Every near item precedes every ring item, and every ring item every far
// item, so near[0] is the queue's head while near is non-empty. When near
// runs dry, refill makes the next occupied bucket current.
//
// Elided arrivals ride in the ring and far tiers as items with slot -1,
// but never enter near. When refill makes their bucket current they go to
// bag, an unordered slice of the current and earlier buckets' elided
// arrivals. There they wait until the refill that leaves their bucket, or
// a RunUntil cut past them, counts them. While an event runs, EventsRun
// and Pending count the bag's arrivals at or before now on the fly.
type Simulator struct {
	now     time.Duration
	nextSeq uint64
	slots   arena[slot]
	free    int32 // last freed slot, -1 when none; see release
	nFree   int
	rng     *rand.Rand
	ran     uint64
	elided  int        // elided arrivals not yet counted
	nets    []*Network // indexed by slot.net; NewNetwork appends

	cur       int64
	near      []heapItem
	ring      [ringBuckets]chain
	occ       [ringBuckets / 64]uint64
	chunks    arena[chunk]
	freeChunk int32
	far       []heapItem
	bag       []heapItem
}

// New creates a simulator whose randomness derives entirely from seed.
func New(seed int64) *Simulator {
	return &Simulator{
		rng:   rand.New(rand.NewSource(seed)),
		slots: newArena[slot](), free: -1,
		chunks: newArena[chunk](), freeChunk: -1,
	}
}

// Now returns the current virtual time (zero at simulation start).
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// EventsRun returns how many events have executed, a cheap progress and
// runaway-loop indicator. The count is logical: an elided arrival counts
// as executed once the clock has reached its time.
func (s *Simulator) EventsRun() uint64 { return s.ran + uint64(s.reached()) }

// Pending returns the number of events still scheduled to run. The count
// is logical: it includes the elided arrivals the clock has not reached.
func (s *Simulator) Pending() int { return int(s.slots.n) - s.nFree + s.elided - s.reached() }

// reached returns how many of the bag's elided arrivals lie at or before
// now.
func (s *Simulator) reached() (n int) {
	for _, it := range s.bag {
		if it.at <= s.now {
			n++
		}
	}
	return n
}

// alloc takes a slot off the free list, growing the arena when empty,
// and returns its index and address.
func (s *Simulator) alloc() (int32, *slot) {
	if idx := s.free; idx >= 0 {
		sl := s.slots.at(idx)
		s.free = int32(sl.size)
		s.nFree--
		return idx, sl
	}
	return s.slots.grow()
}

// release bumps the slot's generation — invalidating its EventID and any
// stale queue entries — and pushes it on the free list. Payload and fn
// references are dropped so executed events don't pin memory. The list
// is a stack linked through the free slots' size fields, so it needs no
// slice of its own to grow.
func (s *Simulator) release(idx int32, sl *slot) {
	*sl = slot{gen: sl.gen + 1, size: int(s.free)}
	s.free = idx
	s.nFree++
}

// schedule places an occupied slot into the queue at time t.
func (s *Simulator) schedule(t time.Duration, sl slot) EventID {
	it := s.item(t, sl)
	s.push(it)
	return EventID(uint64(uint32(it.slot)+1)<<32 | uint64(it.gen))
}

// item stores sl in a fresh slot and returns its queue item at time t,
// clamped to now, with the next sequence number.
func (s *Simulator) item(t time.Duration, sl slot) heapItem {
	idx, p := s.alloc()
	sl.gen = p.gen
	*p = sl
	s.nextSeq++
	return heapItem{at: max(t, s.now), seq: s.nextSeq - 1, slot: idx, gen: sl.gen}
}

// elide queues an elided arrival at time t: a logical event with no slot,
// counted once the clock reaches it.
func (s *Simulator) elide(t time.Duration) {
	if t < s.now {
		t = s.now
	}
	s.elided++
	if it := (heapItem{at: t, slot: -1}); bucketOf(t) > s.cur {
		s.push(it)
	} else {
		s.bag = append(s.bag, it)
	}
}

// count removes at most most of the bag's elided arrivals at or before
// limit in one in-place pass and counts them as executed, advancing the
// clock to the latest. A negative limit counts nothing.
func (s *Simulator) count(limit time.Duration, most int) {
	if limit < 0 {
		return
	}
	kept, n := s.bag[:0], 0
	for _, it := range s.bag {
		if n == most || it.at > limit {
			kept = append(kept, it)
		} else {
			n++
			s.now = max(s.now, it.at)
		}
	}
	s.bag = kept
	s.ran += uint64(n)
	s.elided -= n
}

// At schedules fn to run at absolute virtual time t. Times in the past are
// clamped to now (the event still runs after the current one finishes).
func (s *Simulator) At(t time.Duration, fn func()) EventID {
	return s.schedule(t, slot{kind: kindFn, payload: fn})
}

// After schedules fn to run d from now.
func (s *Simulator) After(d time.Duration, fn func()) EventID {
	return s.At(s.now+d, fn)
}

// Cancel prevents a scheduled event from running. Canceling an event that
// already ran (or was already canceled) is a no-op: its slot's generation
// no longer matches the id.
func (s *Simulator) Cancel(id EventID) {
	// The zero id's slot field wraps to the largest uint32, out of range
	// like any forged slot.
	idx := uint32(id>>32) - 1
	if idx >= uint32(s.slots.n) {
		return
	}
	// A deferred handler run is never handed an id, so only a forged one
	// can name it. It must still run: the next run of its node's held
	// chain is pushed only when it pops, so releasing it would stall the
	// whole chain.
	if sl := s.slots.at(int32(idx)); sl.gen == uint32(id) && (sl.kind == kindFn || sl.kind == kindDeliver) {
		s.release(int32(idx), sl)
	}
}

// push files an item into the tier its bucket belongs to.
func (s *Simulator) push(it heapItem) {
	switch b := bucketOf(it.at); {
	case b <= s.cur:
		s.near = heapPush(s.near, it)
	case b < s.cur+ringBuckets:
		s.ringAppend(b, it)
	default:
		s.far = heapPush(s.far, it)
	}
}

// ringAppend appends an item to ring bucket b's chain, starting the chain
// when the bucket is empty.
func (s *Simulator) ringAppend(b int64, it heapItem) {
	i := int(b & (ringBuckets - 1))
	bit := uint64(1) << (i & 63)
	s.appendTo(&s.ring[i], s.occ[i>>6]&bit == 0, it)
	s.occ[i>>6] |= bit
}

// appendTo appends an item to a chain, starting it on a fresh chunk when
// fresh and taking another when its last chunk is full. Ring buckets and
// held chains share it.
func (s *Simulator) appendTo(ch *chain, fresh bool, it heapItem) {
	if fresh {
		c := s.newChunk()
		*ch = chain{head: c, tail: c}
	}
	k := s.chunks.at(ch.tail)
	if k.n == chunkItems {
		c := s.newChunk()
		k.next = c
		ch.tail = c
		k = s.chunks.at(c)
	}
	k.items[k.n] = it
	k.n++
}

// advance drops the item at *off of a non-empty chain and returns the
// next one, or false when none is left and the chain is now empty (head
// -1). A chunk read to its end goes back to the free list.
func (s *Simulator) advance(ch *chain, off *int32) (heapItem, bool) {
	k := s.chunks.at(ch.head)
	if *off++; *off < k.n {
		return k.items[*off], true
	}
	c, next := ch.head, k.next
	k.next, s.freeChunk = s.freeChunk, c
	ch.head, *off = next, 0
	if next < 0 {
		return heapItem{}, false
	}
	return s.chunks.at(next).items[0], true
}

// freeChain returns the chunks from c to the end of its chain to the free
// list.
func (s *Simulator) freeChain(c int32) {
	for c >= 0 {
		k := s.chunks.at(c)
		next := k.next
		k.next, s.freeChunk = s.freeChunk, c
		c = next
	}
}

// newChunk takes an empty chunk off the free list, growing the arena
// when the list is empty.
func (s *Simulator) newChunk() int32 {
	c := s.freeChunk
	var k *chunk
	if c < 0 {
		c, k = s.chunks.grow()
	} else {
		k = s.chunks.at(c)
		s.freeChunk = k.next
	}
	k.n, k.next = 0, -1
	return c
}

// nextOccupied returns how many buckets past cur+1 the first occupied
// ring bucket lies, scanning the occupancy bitmap a word at a time from
// cur+1 around the ring.
func (s *Simulator) nextOccupied() (int64, bool) {
	start := int((s.cur + 1) & (ringBuckets - 1))
	for d := 0; d < ringBuckets; {
		i := (start + d) & (ringBuckets - 1)
		if w := s.occ[i>>6] >> (i & 63); w != 0 {
			return int64(d + bits.TrailingZeros64(w)), true
		}
		d += 64 - i&63
	}
	return 0, false
}

// refill makes the next occupied bucket current once near has run dry:
// each item of that bucket's chain and each far item in it goes to near
// when scheduled and to the bag when elided, near is heapified, and far
// items that now fit the ring move into it. First it counts the bag up to
// limit: the bucket it leaves holds no more events, and everything refill
// files lies later. It reports false when nothing is left to file.
func (s *Simulator) refill(limit time.Duration) bool {
	s.count(limit, math.MaxInt)
	if d, ok := s.nextOccupied(); ok {
		s.cur += 1 + d
		i := int(s.cur & (ringBuckets - 1))
		s.occ[i>>6] &^= 1 << (i & 63)
		for c := s.ring[i].head; c >= 0; {
			k := s.chunks.at(c)
			for _, it := range k.items[:k.n] {
				s.admit(it)
			}
			c = k.next
		}
		s.freeChain(s.ring[i].head)
	} else if len(s.far) > 0 {
		s.cur = bucketOf(s.far[0].at)
	} else {
		return false
	}
	for len(s.far) > 0 && bucketOf(s.far[0].at) < s.cur+ringBuckets {
		it := s.far[0]
		s.far = heapPop(s.far)
		if b := bucketOf(it.at); b != s.cur {
			s.ringAppend(b, it)
		} else {
			s.admit(it)
		}
	}
	heapify(s.near)
	return true
}

// admit files an item of the new current bucket: an elided arrival into
// the bag, a scheduled one onto near, which refill then heapifies.
func (s *Simulator) admit(it heapItem) {
	if it.slot < 0 {
		s.bag = append(s.bag, it)
	} else {
		s.near = append(s.near, it)
	}
}

// peek drops stale (canceled) entries off the near heap's head, refilling
// it (and counting the bag's elided arrivals up to limit) as it runs dry,
// and reports whether a live scheduled event remains; when it does,
// s.near[0] is the next one in (time, sequence) order.
func (s *Simulator) peek(limit time.Duration) bool {
	for {
		for len(s.near) > 0 {
			if h := s.near[0]; s.slots.at(h.slot).gen == h.gen {
				return true
			}
			s.near = heapPop(s.near)
		}
		if !s.refill(limit) {
			return false
		}
	}
}

// step executes the head event, advancing the clock. Call only after
// peek reported a live head.
func (s *Simulator) step() {
	item := s.near[0]
	s.near = heapPop(s.near)
	sl := s.slots.at(item.slot)
	run := *sl
	s.release(item.slot, sl)
	s.now = item.at
	s.ran++
	switch run.kind {
	case kindFn:
		run.payload.(func())()
	case kindDeliver:
		s.nets[run.net].deliver(NodeID(run.from), NodeID(run.to), run.payload, run.size)
	case kindHandler:
		n := s.nets[run.net]
		n.next(NodeID(run.to))
		n.handlers[run.to](NodeID(run.from), run.payload, run.size)
	}
}

// Step executes the next event, if any, advancing the clock to its time.
// An elided arrival is one event.
func (s *Simulator) Step() bool {
	live := s.peek(-1) // counts nothing: the bag may hold the next event
	first := time.Duration(math.MaxInt64)
	for _, it := range s.bag {
		first = min(first, it.at)
	}
	if len(s.bag) > 0 && (!live || first <= s.near[0].at) {
		s.count(first, 1)
		return true
	}
	if !live {
		return false
	}
	s.step()
	return true
}

// heapPush appends an item to the binary min-heap q and sifts it up; a
// hand-rolled heap keeps items as values (container/heap would box every
// Push into an interface).
func heapPush(q []heapItem, it heapItem) []heapItem {
	q = append(q, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !itemLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	return q
}

// heapPop removes the head of the binary min-heap q.
func heapPop(q []heapItem) []heapItem {
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	siftDown(q, 0)
	return q
}

// heapify orders q as a binary min-heap in linear time.
func heapify(q []heapItem) {
	for i := len(q)/2 - 1; i >= 0; i-- {
		siftDown(q, i)
	}
}

func siftDown(q []heapItem, i int) {
	n := len(q)
	for {
		smallest := i
		if l := 2*i + 1; l < n && itemLess(q[l], q[smallest]) {
			smallest = l
		}
		if r := 2*i + 2; r < n && itemLess(q[r], q[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
}

// Run executes events until the queue drains or maxEvents have run;
// maxEvents 0 means no limit. It returns the number of events executed.
// Both counts are logical: an elided arrival is one event.
func (s *Simulator) Run(maxEvents uint64) uint64 {
	start := s.ran
	if maxEvents == 0 {
		for s.peek(math.MaxInt64) {
			s.step()
		}
		return s.ran - start
	}
	for s.ran-start < maxEvents && s.Step() {
	}
	return s.ran - start
}

// RunUntil executes all events scheduled up to and including t, then sets
// the clock to t.
func (s *Simulator) RunUntil(t time.Duration) {
	for s.peek(t) && s.near[0].at <= t {
		s.step()
	}
	s.count(t, math.MaxInt)
	if s.now < t {
		s.now = t
		// With the queue empty, cur may lie before now's bucket; an
		// elided arrival at now must still land in the bag.
		s.cur = max(s.cur, bucketOf(t))
	}
}

// RunFor executes events for a span of virtual time from now.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// Exp samples an exponentially distributed duration with the given mean,
// the inter-arrival law of Poisson processes (PoW block discovery).
func Exp(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// Uniform samples a duration uniformly from [lo, hi]. Inverted bounds
// are normalized by swapping, so Uniform(rng, 300ms, 100ms) samples
// [100ms, 300ms] instead of feeding rng.Int63n a negative span.
func Uniform(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if hi < lo {
		lo, hi = hi, lo
	}
	if hi == lo {
		return lo
	}
	span := int64(hi-lo) + 1
	if span <= 0 {
		// [lo, hi] spans more than half the int64 range: Int63n would
		// panic on the overflowed span. Sample the full range via Int63.
		return lo + time.Duration(rng.Int63())
	}
	return lo + time.Duration(rng.Int63n(span))
}

// NodeID indexes a node within a Network.
type NodeID int

// Handler consumes a message delivered to a node.
type Handler func(from NodeID, payload any, size int)

// LinkModel decides per-message delay and loss.
type LinkModel interface {
	// Delay returns the propagation delay for size bytes from one node to
	// another, and whether the message is delivered at all.
	Delay(rng *rand.Rand, from, to NodeID, size int) (time.Duration, bool)
}

// UniformLinks is a simple symmetric link model: latency uniform in
// [MinLatency, MaxLatency], optional bandwidth serialization and loss.
type UniformLinks struct {
	MinLatency time.Duration
	MaxLatency time.Duration
	// BytesPerSec adds size/BytesPerSec of serialization delay when > 0.
	BytesPerSec float64
	// DropRate is the probability a message is lost, in [0, 1).
	DropRate float64
}

// Delay implements LinkModel. Misconfigured bounds (MinLatency above
// MaxLatency) are normalized by Uniform to the intended [min, max] range,
// and the result is clamped so no configuration — negative latencies,
// NaN bandwidth — can ever deliver a message into the past.
func (u UniformLinks) Delay(rng *rand.Rand, _, _ NodeID, size int) (time.Duration, bool) {
	if u.DropRate > 0 && rng.Float64() < u.DropRate {
		return 0, false
	}
	d := Uniform(rng, u.MinLatency, u.MaxLatency)
	if u.BytesPerSec > 0 {
		d += time.Duration(float64(size) / u.BytesPerSec * float64(time.Second))
	}
	return clampDelay(d), true
}

// clampDelay floors a computed link delay at zero. Pathological link
// parameters (negative bounds, NaN arithmetic cast to a negative int64)
// must never schedule delivery before the send.
func clampDelay(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// RegionLinks models a geo-distributed network: each node belongs to a
// region; intra-region messages are fast, inter-region messages slow.
type RegionLinks struct {
	// Region maps each node to its region index.
	Region []int
	// Intra and Inter are the base latencies within and across regions.
	Intra, Inter time.Duration
	// JitterFrac adds ±JitterFrac of random jitter to the base latency.
	JitterFrac float64
	// BytesPerSec adds serialization delay when > 0.
	BytesPerSec float64
}

// Delay implements LinkModel.
func (r RegionLinks) Delay(rng *rand.Rand, from, to NodeID, size int) (time.Duration, bool) {
	base := r.Inter
	if int(from) < len(r.Region) && int(to) < len(r.Region) && r.Region[from] == r.Region[to] {
		base = r.Intra
	}
	d := base
	if r.JitterFrac > 0 {
		j := 1 + r.JitterFrac*(2*rng.Float64()-1)
		d = time.Duration(float64(base) * j)
	}
	if r.BytesPerSec > 0 {
		d += time.Duration(float64(size) / r.BytesPerSec * float64(time.Second))
	}
	return clampDelay(d), true
}

// NetStats counts network traffic.
type NetStats struct {
	MessagesSent int
	BytesSent    int64
	Dropped      int
	Partitioned  int
	// ChurnDropped counts messages lost because an endpoint was detached
	// (churn: the node had left the network).
	ChurnDropped int
	// LossDropped counts messages lost to the runtime loss hook
	// (SetLossRate), on top of the link model's own drops.
	LossDropped int
	// Elided counts sent messages that were counted, not scheduled,
	// because the receiver already held the payload (SendDuplicate).
	// They are part of MessagesSent and BytesSent.
	Elided int
}

// Network connects handlers through a link model on a simulator. Optional
// per-node processing budgets serialize message handling, modeling the
// "quality of consumer grade hardware" bound the paper gives for Nano
// throughput (§VI-B).
type Network struct {
	sim      *Simulator
	handlers []Handler
	links    LinkModel
	group    []int  // partition group per node; same group = connected
	detached []bool // churn: detached nodes neither send nor receive
	lossRate float64
	peers    [][]NodeID
	procCost func(to NodeID, payload any, size int) time.Duration
	procs    []processor // per node, made on first use; see proc
	stats    NetStats
	id       uint8 // index in sim.nets, which a delivery slot carries
}

// processor is one node's state under a processing model: when its
// current work ends, and the handler runs its budget has deferred.
//
// A deferred run starts at busyUntil, which only ever grows, so a node's
// runs are made in (at, seq) order and wait in held, a FIFO chain in the
// queue's chunk arena read from off. Each run takes its slot and sequence
// number at delivery, but only the chain's first run is in the event
// queue: when it pops, step pushes the next with its own (at, seq),
// before anything at or after that can pop. A busy node thus keeps one
// queue item, however deep its backlog.
type processor struct {
	busyUntil time.Duration
	held      chain // empty when head is -1
	off       int32 // read offset into held's first chunk
}

// NewNetwork creates an empty network over the simulator and link model.
// A simulator carries at most 256 networks, because a delivery slot names
// its network by a uint8 index; NewNetwork panics past that.
func NewNetwork(s *Simulator, links LinkModel) *Network {
	if len(s.nets) > math.MaxUint8 {
		panic(fmt.Sprintf("sim: a simulator carries at most %d networks", math.MaxUint8+1))
	}
	n := &Network{sim: s, links: links, id: uint8(len(s.nets))}
	s.nets = append(s.nets, n)
	return n
}

// Sim returns the underlying simulator.
func (n *Network) Sim() *Simulator { return n.sim }

// AddNode registers a handler and returns its NodeID. A nil handler can be
// set later with SetHandler (nodes often need their ID to construct). It
// panics past math.MaxInt32 nodes, the ids a delivery slot can carry.
func (n *Network) AddNode(h Handler) NodeID {
	id := nodeID(len(n.handlers))
	n.handlers = append(n.handlers, h)
	n.group = append(n.group, 0)
	n.detached = append(n.detached, false)
	return id
}

// nodeID returns the id of a network's node at index i, which must fit
// the int32 a delivery slot carries.
func nodeID(i int) NodeID {
	if i >= math.MaxInt32 {
		panic(fmt.Sprintf("sim: a network holds at most %d nodes", math.MaxInt32))
	}
	return NodeID(i)
}

// SetHandler binds the handler for an existing node.
func (n *Network) SetHandler(id NodeID, h Handler) { n.handlers[id] = h }

// NumNodes returns the number of registered nodes.
func (n *Network) NumNodes() int { return len(n.handlers) }

// SetProcessing installs a per-message processing-cost model. When set,
// each node handles messages serially: a message's handler runs only when
// the node is free, and occupies it for the returned cost. A message that
// arrives while its node is busy waits in the node's own held chain, not
// in the event queue, which holds only the first run of each busy node.
// The per-node state is made at the first delivery or Occupy under a
// model, so a network without one keeps none.
func (n *Network) SetProcessing(cost func(to NodeID, payload any, size int) time.Duration) {
	n.procCost = cost
}

// Occupy consumes d of a node's processing budget starting now (or when
// its current work finishes): later message handlers queue behind it, in
// the node's held chain. Nodes that aggregate work outside per-message
// delivery — e.g. batched block validation — use it to charge the
// aggregate cost. A no-op unless a processing model is installed.
func (n *Network) Occupy(id NodeID, d time.Duration) {
	if n.procCost == nil || d <= 0 || int(id) >= len(n.handlers) {
		return
	}
	p := n.proc(id)
	p.busyUntil = max(n.sim.Now(), p.busyUntil) + d
}

// proc returns node id's processing state, growing the table to the
// network's size on first use, so a node added after the first deferral
// still gets one.
func (n *Network) proc(id NodeID) *processor {
	if int(id) >= len(n.procs) {
		n.procs = slices.Grow(n.procs, len(n.handlers)-len(n.procs))
		for len(n.procs) < len(n.handlers) {
			n.procs = append(n.procs, processor{held: chain{head: -1}})
		}
	}
	return &n.procs[id]
}

// put files a deferred handler run at the tail of a node's held chain and
// pushes it to the queue when it heads the chain.
func (n *Network) put(p *processor, it heapItem) {
	empty := p.held.head < 0
	n.sim.appendTo(&p.held, empty, it)
	if empty {
		n.sim.push(it)
	}
}

// next drops node id's deferred run that just popped off its held chain
// and pushes its successor, with the (at, seq) it took at delivery.
func (n *Network) next(id NodeID) {
	p := &n.procs[id]
	if it, ok := n.sim.advance(&p.held, &p.off); ok {
		n.sim.push(it)
	}
}

// Partition assigns nodes to connectivity groups; messages across groups
// are dropped (counted in Stats().Partitioned) until Heal is called.
// Each call REPLACES the previous partition: nodes absent from groups
// return to group 0, so successive calls describe independent splits
// rather than accumulating group assignments.
func (n *Network) Partition(groups map[NodeID]int) {
	for i := range n.group {
		n.group[i] = 0
	}
	for id, g := range groups {
		if int(id) < len(n.group) {
			n.group[id] = g
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	for i := range n.group {
		n.group[i] = 0
	}
}

// Detach removes a node from the network (churn: the node left). Messages
// to or from a detached node are dropped and counted in ChurnDropped; the
// node's local state is untouched, so it resumes from its stale view when
// re-attached.
func (n *Network) Detach(id NodeID) {
	if int(id) < len(n.detached) {
		n.detached[id] = true
	}
}

// Attach reconnects a detached node (churn: the node rejoined). The node
// has missed everything sent while it was away — callers model real-world
// rejoin by replaying a catch-up from a live peer.
func (n *Network) Attach(id NodeID) {
	if int(id) < len(n.detached) {
		n.detached[id] = false
	}
}

// IsDetached reports whether a node is currently detached.
func (n *Network) IsDetached(id NodeID) bool {
	return int(id) < len(n.detached) && n.detached[id]
}

// SetLossRate installs a runtime loss hook: every message is additionally
// dropped with probability p (counted in LossDropped), on top of whatever
// the link model already loses. p <= 0 disables the hook; fault drivers
// flip it mid-run to model lossy periods.
func (n *Network) SetLossRate(p float64) {
	if p < 0 || p != p {
		p = 0
	}
	n.lossRate = p
}

// SetPeers installs a gossip topology; SendToPeers fans out along it.
func (n *Network) SetPeers(peers [][]NodeID) { n.peers = peers }

// SetPeersOf replaces one node's peer list — the per-node peer view that
// lets an adversary capture a victim's peer table (eclipse attacks)
// without touching anyone else's. The peer graph is directed from here
// on: rewriting node v's list changes where v relays to, not who relays
// to v. A nil topology is grown to fit so the call works before SetPeers.
func (n *Network) SetPeersOf(id NodeID, peers []NodeID) {
	if id < 0 {
		return
	}
	for int(id) >= len(n.peers) {
		n.peers = append(n.peers, nil)
	}
	n.peers[id] = peers
}

// Peers returns the peer list of a node (nil when no topology installed).
func (n *Network) Peers(id NodeID) []NodeID {
	if n.peers == nil || int(id) >= len(n.peers) {
		return nil
	}
	return n.peers[id]
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() NetStats { return n.stats }

// Send delivers payload from one node to another through the link model.
// Delivery is scheduled on the simulator; the handler runs at arrival time
// (plus queueing when a processing model is installed).
func (n *Network) Send(from, to NodeID, payload any, size int) {
	if arrival, ok := n.route(from, to, size); ok {
		// Scheduled as a kindDeliver slot, not a closure: this is the
		// hottest allocation site of every gossip flood.
		n.sim.schedule(arrival, slot{kind: kindDeliver, net: n.id, from: int32(from), to: int32(to), payload: payload, size: size})
	}
}

// SendDuplicate is Send for a payload the caller knows the receiver will
// drop unseen on arrival, with no side effect but the event itself. It
// applies Send's drops and draws the same randomness in the same order,
// and a message that survives counts in MessagesSent and BytesSent, but
// its arrival is elided: queued as a bare logical event that runs no
// handler (see the package doc). It reports the arrival time and
// whether the arrival was elided. With a processing model installed a
// duplicate still costs the receiver its processing time, so the message
// is sent as by Send and false is returned.
func (n *Network) SendDuplicate(from, to NodeID, payload any, size int) (time.Duration, bool) {
	if n.procCost != nil {
		n.Send(from, to, payload, size)
		return 0, false
	}
	arrival, ok := n.route(from, to, size)
	if ok {
		n.stats.Elided++
		n.sim.elide(arrival)
	}
	return arrival, ok
}

// route is the send-time half of every message: the drop checks in
// precedence order (churn, partition, loss hook, link model), each loss
// counted once, then the traffic counters. It returns the arrival time
// of a message that survives.
func (n *Network) route(from, to NodeID, size int) (time.Duration, bool) {
	if int(to) >= len(n.handlers) || n.handlers[to] == nil {
		return 0, false
	}
	if n.detached[from] || n.detached[to] {
		n.stats.ChurnDropped++
		return 0, false
	}
	if n.group[from] != n.group[to] {
		n.stats.Partitioned++
		return 0, false
	}
	if n.lossRate > 0 && n.sim.rng.Float64() < n.lossRate {
		n.stats.LossDropped++
		return 0, false
	}
	delay, ok := n.links.Delay(n.sim.rng, from, to, size)
	if !ok {
		n.stats.Dropped++
		return 0, false
	}
	n.stats.MessagesSent++
	n.stats.BytesSent += int64(size)
	return n.sim.Now() + delay, true
}

// deliver runs the destination handler, honoring the processing budget.
func (n *Network) deliver(from, to NodeID, payload any, size int) {
	if n.procCost == nil {
		n.handlers[to](from, payload, size)
		return
	}
	p := n.proc(to)
	start := max(n.sim.Now(), p.busyUntil)
	p.busyUntil = start + n.procCost(to, payload, size)
	if start == n.sim.Now() {
		n.handlers[to](from, payload, size)
		return
	}
	n.put(p, n.sim.item(start, slot{kind: kindHandler, net: n.id, from: int32(from), to: int32(to), payload: payload, size: size}))
}

// BroadcastAll sends payload from one node directly to every other node.
// It models an idealized relay network; gossip via SetPeers/SendToPeers is
// the realistic alternative.
func (n *Network) BroadcastAll(from NodeID, payload any, size int) {
	for id := range n.handlers {
		if NodeID(id) != from {
			n.Send(from, NodeID(id), payload, size)
		}
	}
}

// SendToPeers sends payload from a node to each of its gossip peers.
func (n *Network) SendToPeers(from NodeID, payload any, size int) {
	for _, p := range n.Peers(from) {
		n.Send(from, p, payload, size)
	}
}

// RandomPeers builds a random undirected topology where every node has at
// least degree peers (more when chosen by others). It panics if degree is
// infeasible for n nodes.
func RandomPeers(rng *rand.Rand, n, degree int) [][]NodeID {
	if degree >= n {
		panic(fmt.Sprintf("sim: degree %d infeasible for %d nodes", degree, n))
	}
	adj := make([]map[NodeID]bool, n)
	for i := range adj {
		adj[i] = make(map[NodeID]bool, degree*2)
	}
	for i := 0; i < n; i++ {
		for len(adj[i]) < degree {
			j := NodeID(rng.Intn(n))
			if int(j) == i {
				continue
			}
			adj[i][j] = true
			adj[j][NodeID(i)] = true
		}
	}
	out := make([][]NodeID, n)
	for i, set := range adj {
		out[i] = make([]NodeID, 0, len(set))
		for p := range set {
			out[i] = append(out[i], p)
		}
		// Sort for determinism: map iteration order is random.
		sortNodeIDs(out[i])
	}
	return out
}

func sortNodeIDs(ids []NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
