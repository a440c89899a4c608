package sim

// Elided arrivals (SendDuplicate): counted, not scheduled. A duplicate
// send draws the randomness and counts the traffic of a Send, runs no
// handler, and is an executed event for EventsRun, Pending, Run and Now
// once the clock reaches its arrival time — at a RunUntil cut inside its
// bucket, at the cut's own instant, and from the far tier past the ring.

import (
	"math/rand"
	"testing"
	"time"
)

// counts fails unless EventsRun and Pending read ran and pending.
func counts(t *testing.T, s *Simulator, ran uint64, pending int) {
	t.Helper()
	if s.EventsRun() != ran || s.Pending() != pending {
		t.Fatalf("at %v: EventsRun %d Pending %d, want %d and %d", s.Now(), s.EventsRun(), s.Pending(), ran, pending)
	}
}

func TestElidedArrivalCountedAtCutInsideBucket(t *testing.T) {
	s := New(1)
	// 21 ms and 22 ms share bucket 20 (20.97 ms to 22.02 ms).
	s.elide(21 * time.Millisecond)
	s.elide(22 * time.Millisecond)
	if bucketOf(21*time.Millisecond) != bucketOf(22*time.Millisecond) {
		t.Fatal("test times no longer share a bucket")
	}
	counts(t, s, 0, 2)
	s.RunUntil(21*time.Millisecond + time.Microsecond)
	counts(t, s, 1, 1)
	s.RunUntil(30 * time.Millisecond)
	counts(t, s, 2, 0)
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want the cut", s.Now())
	}
}

func TestElidedArrivalCountedAtSameInstant(t *testing.T) {
	s := New(1)
	var inside uint64
	s.At(5*time.Millisecond, func() { inside = s.EventsRun() })
	s.elide(5 * time.Millisecond) // filed after the event, run before it
	s.elide(6 * time.Millisecond)
	s.RunUntil(5 * time.Millisecond)
	if inside != 2 {
		t.Fatalf("EventsRun inside the event = %d, want 2 (the arrival at its instant first)", inside)
	}
	counts(t, s, 2, 1)
	s.RunUntil(6 * time.Millisecond)
	counts(t, s, 3, 0)
}

func TestElidedArrivalPastTheRing(t *testing.T) {
	s := New(1)
	s.elide(10 * time.Second) // far past the ring's ~268 ms
	s.At(20*time.Millisecond, func() {})
	s.RunUntil(5 * time.Second)
	counts(t, s, 1, 1)
	s.RunUntil(10 * time.Second)
	counts(t, s, 2, 0)
	// Draining ends on the last arrival, elided or not.
	s.elide(s.Now() + 3*time.Second)
	if n := s.Run(0); n != 1 || s.Now() != 13*time.Second {
		t.Fatalf("Run(0) ran %d, Now %v; want 1 and 13s", n, s.Now())
	}
}

func TestStepCountsElidedArrivalsOneByOne(t *testing.T) {
	s := New(1)
	var order []time.Duration
	for _, ms := range []time.Duration{2, 4} {
		at := ms * time.Millisecond
		s.At(at, func() { order = append(order, at) })
	}
	for _, ms := range []time.Duration{1, 3, 4, 400} {
		s.elide(ms * time.Millisecond)
	}
	want := []struct {
		now  time.Duration
		ran  int // scheduled events run so far
		real bool
	}{{1, 0, false}, {2, 1, true}, {3, 1, false}, {4, 1, false}, {4, 2, true}, {400, 2, false}}
	for i, w := range want {
		if got := s.Run(1); got != 1 {
			t.Fatalf("step %d: Run(1) = %d", i, got)
		}
		if s.Now() != w.now*time.Millisecond || len(order) != w.ran {
			t.Fatalf("step %d: Now %v after %d events, want %v after %d", i, s.Now(), len(order), w.now*time.Millisecond, w.ran)
		}
		counts(t, s, uint64(i+1), len(want)-i-1)
	}
	if s.Step() {
		t.Fatal("Step on an empty queue reported an event")
	}
}

// twin runs the same message stream through Send on one network and
// SendDuplicate on another of the same seed, with a processing model on
// both when proc is set.
func twin(t *testing.T, proc bool, links LinkModel) (a, b *Network, handled [2]int) {
	t.Helper()
	nets := [2]*Network{}
	for i := range nets {
		s := New(9)
		n := NewNetwork(s, links)
		for j := 0; j < 4; j++ {
			n.AddNode(func(NodeID, any, int) { handled[i]++ })
		}
		if proc {
			n.SetProcessing(func(NodeID, any, int) time.Duration { return time.Millisecond })
		}
		n.SetLossRate(0.2)
		n.Partition(map[NodeID]int{3: 1})
		nets[i] = n
	}
	for k := 0; k < 200; k++ {
		from, to := NodeID(k%4), NodeID((k/4+1+k)%4)
		nets[0].Send(from, to, k, 100+k)
		if at, ok := nets[1].SendDuplicate(from, to, k, 100+k); ok && at < nets[1].sim.Now() {
			t.Fatalf("elided arrival at %v before the send", at)
		}
	}
	for _, n := range nets {
		n.sim.Run(0)
	}
	return nets[0], nets[1], handled
}

func TestSendDuplicateDrawsAndCountsLikeSend(t *testing.T) {
	links := UniformLinks{MinLatency: time.Millisecond, MaxLatency: 400 * time.Millisecond, DropRate: 0.1}
	a, b, handled := twin(t, false, links)
	sa, sb := a.Stats(), b.Stats()
	if sb.Elided != sb.MessagesSent || sb.Elided == 0 || sa.Elided != 0 {
		t.Fatalf("Elided %d of %d sent (Send side %d)", sb.Elided, sb.MessagesSent, sa.Elided)
	}
	sb.Elided = 0
	if sa != sb {
		t.Fatalf("stats differ: Send %+v, SendDuplicate %+v", sa, sb)
	}
	if handled[1] != 0 || handled[0] != sa.MessagesSent {
		t.Fatalf("handlers ran %d (Send) and %d (SendDuplicate) times", handled[0], handled[1])
	}
	if a.sim.EventsRun() != b.sim.EventsRun() || a.sim.Now() != b.sim.Now() {
		t.Fatalf("EventsRun %d vs %d, Now %v vs %v", a.sim.EventsRun(), b.sim.EventsRun(), a.sim.Now(), b.sim.Now())
	}
	if a.sim.rng.Int63() != b.sim.rng.Int63() {
		t.Fatal("the two networks' random streams diverged")
	}
}

func TestSendDuplicateWithProcessingModelSends(t *testing.T) {
	links := UniformLinks{MinLatency: time.Millisecond, MaxLatency: 40 * time.Millisecond}
	a, b, handled := twin(t, true, links)
	if a.Stats() != b.Stats() || b.Stats().Elided != 0 {
		t.Fatalf("stats differ: Send %+v, SendDuplicate %+v", a.Stats(), b.Stats())
	}
	if handled[0] != handled[1] || a.sim.EventsRun() != b.sim.EventsRun() || a.sim.Now() != b.sim.Now() {
		t.Fatalf("handled %v, EventsRun %d vs %d, Now %v vs %v", handled, a.sim.EventsRun(), b.sim.EventsRun(), a.sim.Now(), b.sim.Now())
	}
}

// TestWarmElisionAllocatesNothing: once the arenas and the bag of elided
// arrivals have grown to a gossip flood's steady state, a duplicate send,
// a scheduled send and a millisecond of running allocate nothing.
func TestWarmElisionAllocatesNothing(t *testing.T) {
	s := New(1)
	n := NewNetwork(s, UniformLinks{MinLatency: 20 * time.Millisecond, MaxLatency: 200 * time.Millisecond})
	for i := 0; i < 64; i++ {
		n.AddNode(func(NodeID, any, int) {})
	}
	rng := rand.New(rand.NewSource(5))
	send := func() {
		from, to := NodeID(rng.Intn(64)), NodeID(rng.Intn(64))
		for k := 0; k < 8; k++ {
			n.SendDuplicate(from, to, nil, 200)
		}
		n.Send(from, to, nil, 200)
		s.RunFor(50 * time.Microsecond)
	}
	for i := 0; i < 50_000; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(5_000, send); allocs != 0 {
		t.Fatalf("duplicate + scheduled send on a warm queue: %v allocs, want 0", allocs)
	}
}
