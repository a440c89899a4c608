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
// live in a reusable slot arena indexed by a value-typed binary heap,
// and network deliveries are stored as slot fields rather than closures.
// An EventID is a slot index plus a generation counter, so Cancel is an
// O(1) generation check — no per-event map, and canceling an event that
// already ran (its slot's generation has moved on) is a safe no-op.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// EventID identifies a scheduled event so it can be canceled. It packs
// the event's arena slot (high 32 bits) and that slot's generation at
// schedule time (low 32 bits); the generation changes when the event
// runs or is canceled, which is what makes stale cancels no-ops.
type EventID uint64

// slotKind says what an occupied arena slot executes.
type slotKind uint8

const (
	kindFree    slotKind = iota // slot is on the free list
	kindFn                      // call fn
	kindDeliver                 // network delivery: run net.deliver
	kindHandler                 // deferred handler run after a busy wait
)

// slot is one arena entry. Network deliveries carry their operands here
// instead of capturing them in a closure, which removes the per-message
// allocation under every gossip flood.
type slot struct {
	gen      uint32
	kind     slotKind
	fn       func()
	net      *Network
	from, to NodeID
	payload  any
	size     int
}

// heapItem is one pending-queue entry. Ordering state (time, sequence)
// lives here by value; the slot holds only what the event executes.
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

// Simulator owns the virtual clock, the pending-event queue and the seeded
// random source shared by the whole simulation.
type Simulator struct {
	now     time.Duration
	queue   []heapItem // binary min-heap on (at, seq)
	nextSeq uint64
	slots   []slot
	free    []int32
	rng     *rand.Rand
	ran     uint64
}

// New creates a simulator whose randomness derives entirely from seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (zero at simulation start).
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// EventsRun returns how many events have executed, a cheap progress and
// runaway-loop indicator.
func (s *Simulator) EventsRun() uint64 { return s.ran }

// Pending returns the number of events still scheduled to run.
func (s *Simulator) Pending() int { return len(s.slots) - len(s.free) }

// alloc takes a slot off the free list, growing the arena when empty.
func (s *Simulator) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.slots = append(s.slots, slot{})
	return int32(len(s.slots) - 1)
}

// release bumps the slot's generation — invalidating its EventID and any
// stale heap entries — and returns it to the free list. Payload and fn
// references are dropped so executed events don't pin memory.
func (s *Simulator) release(idx int32) {
	s.slots[idx] = slot{gen: s.slots[idx].gen + 1}
	s.free = append(s.free, idx)
}

// schedule places an occupied slot into the queue at time t.
func (s *Simulator) schedule(t time.Duration, sl slot) EventID {
	if t < s.now {
		t = s.now
	}
	idx := s.alloc()
	sl.gen = s.slots[idx].gen
	s.slots[idx] = sl
	s.push(heapItem{at: t, seq: s.nextSeq, slot: idx, gen: sl.gen})
	s.nextSeq++
	return EventID(uint64(uint32(idx))<<32 | uint64(sl.gen))
}

// At schedules fn to run at absolute virtual time t. Times in the past are
// clamped to now (the event still runs after the current one finishes).
func (s *Simulator) At(t time.Duration, fn func()) EventID {
	return s.schedule(t, slot{kind: kindFn, fn: fn})
}

// After schedules fn to run d from now.
func (s *Simulator) After(d time.Duration, fn func()) EventID {
	return s.At(s.now+d, fn)
}

// Cancel prevents a scheduled event from running. Canceling an event that
// already ran (or was already canceled) is a no-op: its slot's generation
// no longer matches the id.
func (s *Simulator) Cancel(id EventID) {
	idx := int32(id >> 32)
	if int(idx) < len(s.slots) && s.slots[idx].gen == uint32(id) && s.slots[idx].kind != kindFree {
		s.release(idx)
	}
}

// peek drops stale (canceled) entries off the heap's head and reports
// whether a live event remains; when it does, s.queue[0] is the next
// event in (time, sequence) order.
func (s *Simulator) peek() bool {
	for len(s.queue) > 0 && s.slots[s.queue[0].slot].gen != s.queue[0].gen {
		s.pop()
	}
	return len(s.queue) > 0
}

// step executes the head event, advancing the clock. Call only after
// peek reported a live head.
func (s *Simulator) step() {
	item := s.queue[0]
	s.pop()
	run := s.slots[item.slot]
	s.release(item.slot)
	s.now = item.at
	s.ran++
	switch run.kind {
	case kindFn:
		run.fn()
	case kindDeliver:
		run.net.deliver(run.from, run.to, run.payload, run.size)
	case kindHandler:
		run.net.handlers[run.to](run.from, run.payload, run.size)
	}
}

// Step executes the next event, if any, advancing the clock to its time.
func (s *Simulator) Step() bool {
	if !s.peek() {
		return false
	}
	s.step()
	return true
}

// push appends an item and sifts it up; a hand-rolled heap keeps items
// as values (container/heap would box every Push into an interface).
func (s *Simulator) push(it heapItem) {
	q := append(s.queue, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !itemLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	s.queue = q
}

// pop removes the head item and restores the heap's order.
func (s *Simulator) pop() {
	q := s.queue
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		smallest := i
		if l := 2*i + 1; l < n && itemLess(q[l], q[smallest]) {
			smallest = l
		}
		if r := 2*i + 2; r < n && itemLess(q[r], q[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	s.queue = q
}

// Run executes events until the queue drains or maxEvents have run;
// maxEvents <= 0 means no limit. It returns the number of events executed.
func (s *Simulator) Run(maxEvents uint64) uint64 {
	start := s.ran
	for maxEvents <= 0 || s.ran-start < maxEvents {
		if !s.Step() {
			break
		}
	}
	return s.ran - start
}

// RunUntil executes all events scheduled up to and including t, then sets
// the clock to t.
func (s *Simulator) RunUntil(t time.Duration) {
	for s.peek() && s.queue[0].at <= t {
		s.step()
	}
	if s.now < t {
		s.now = t
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
}

// Network connects handlers through a link model on a simulator. Optional
// per-node processing budgets serialize message handling, modeling the
// "quality of consumer grade hardware" bound the paper gives for Nano
// throughput (§VI-B).
type Network struct {
	sim       *Simulator
	handlers  []Handler
	links     LinkModel
	group     []int  // partition group per node; same group = connected
	detached  []bool // churn: detached nodes neither send nor receive
	lossRate  float64
	peers     [][]NodeID
	procCost  func(to NodeID, payload any, size int) time.Duration
	busyUntil []time.Duration
	stats     NetStats
}

// NewNetwork creates an empty network over the simulator and link model.
func NewNetwork(s *Simulator, links LinkModel) *Network {
	return &Network{sim: s, links: links}
}

// Sim returns the underlying simulator.
func (n *Network) Sim() *Simulator { return n.sim }

// AddNode registers a handler and returns its NodeID. A nil handler can be
// set later with SetHandler (nodes often need their ID to construct).
func (n *Network) AddNode(h Handler) NodeID {
	n.handlers = append(n.handlers, h)
	n.group = append(n.group, 0)
	n.detached = append(n.detached, false)
	n.busyUntil = append(n.busyUntil, 0)
	return NodeID(len(n.handlers) - 1)
}

// SetHandler binds the handler for an existing node.
func (n *Network) SetHandler(id NodeID, h Handler) { n.handlers[id] = h }

// NumNodes returns the number of registered nodes.
func (n *Network) NumNodes() int { return len(n.handlers) }

// SetProcessing installs a per-message processing-cost model. When set,
// each node handles messages serially: a message's handler runs only when
// the node is free, and occupies it for the returned cost.
func (n *Network) SetProcessing(cost func(to NodeID, payload any, size int) time.Duration) {
	n.procCost = cost
}

// Occupy consumes d of a node's processing budget starting now (or when
// its current work finishes): later message handlers queue behind it.
// Nodes that aggregate work outside per-message delivery — e.g. batched
// block validation — use it to charge the aggregate cost. A no-op unless
// a processing model is installed.
func (n *Network) Occupy(id NodeID, d time.Duration) {
	if n.procCost == nil || d <= 0 || int(id) >= len(n.busyUntil) {
		return
	}
	start := n.sim.Now()
	if b := n.busyUntil[id]; b > start {
		start = b
	}
	n.busyUntil[id] = start + d
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
	if int(to) >= len(n.handlers) || n.handlers[to] == nil {
		return
	}
	if n.detached[from] || n.detached[to] {
		n.stats.ChurnDropped++
		return
	}
	if n.group[from] != n.group[to] {
		n.stats.Partitioned++
		return
	}
	if n.lossRate > 0 && n.sim.rng.Float64() < n.lossRate {
		n.stats.LossDropped++
		return
	}
	delay, ok := n.links.Delay(n.sim.rng, from, to, size)
	if !ok {
		n.stats.Dropped++
		return
	}
	n.stats.MessagesSent++
	n.stats.BytesSent += int64(size)
	arrival := n.sim.Now() + delay
	// Scheduled as a kindDeliver slot, not a closure: this is the hottest
	// allocation site of every gossip flood.
	n.sim.schedule(arrival, slot{kind: kindDeliver, net: n, from: from, to: to, payload: payload, size: size})
}

// deliver runs the destination handler, honoring the processing budget.
func (n *Network) deliver(from, to NodeID, payload any, size int) {
	if n.procCost == nil {
		n.handlers[to](from, payload, size)
		return
	}
	start := n.sim.Now()
	if b := n.busyUntil[to]; b > start {
		start = b
	}
	cost := n.procCost(to, payload, size)
	n.busyUntil[to] = start + cost
	if start == n.sim.Now() {
		n.handlers[to](from, payload, size)
		return
	}
	n.sim.schedule(start, slot{kind: kindHandler, net: n, from: from, to: to, payload: payload, size: size})
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
