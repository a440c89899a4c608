package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(2*time.Second, func() { order = append(order, 2) })
	s.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", s.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	s := New(1)
	ran := false
	s.After(time.Second, func() {
		s.At(0, func() { ran = true }) // scheduled "in the past"
	})
	s.Run(0)
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
	if s.Now() != time.Second {
		t.Fatalf("clock moved backwards: %v", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	id := s.After(time.Second, func() { ran = true })
	s.Cancel(id)
	s.Run(0)
	if ran {
		t.Fatal("canceled event ran")
	}
	// double-cancel and cancel-after-run are no-ops
	s.Cancel(id)
	id2 := s.After(time.Second, func() {})
	s.Run(0)
	s.Cancel(id2)
}

// TestCancelZeroAndForgedIDs pins what Cancel does with ids no schedule
// returned: the zero EventID (an unset timer field) cancels nothing, not
// even the first event a simulator schedules, and a forged slot field
// is out of range, never a negative index.
func TestCancelZeroAndForgedIDs(t *testing.T) {
	s := New(1)
	ran := false
	first := s.After(time.Millisecond, func() { ran = true })
	if first == 0 {
		t.Fatal("the first event got the zero EventID")
	}
	for _, id := range []EventID{0, EventID(math.MaxUint32) << 32, ^EventID(0), first + 1<<32} {
		s.Cancel(id)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after zero and forged cancels, want 1", s.Pending())
	}
	s.Run(0)
	if !ran {
		t.Fatal("a zero or forged id canceled the first event")
	}
}

// TestPendingCancelStaleIDs pins the Pending/Cancel generation
// semantics: a cancel from inside a running event leaves the stale heap
// entry invisible to execution, an EventID goes stale once its event
// ran or was canceled, and a stale id never cancels the event that
// later reuses its slot.
func TestPendingCancelStaleIDs(t *testing.T) {
	s := New(5)
	var fired []string
	fire := func(name string) func() { return func() { fired = append(fired, name) } }
	var b EventID
	s.At(10*time.Millisecond, func() {
		fired = append(fired, "A")
		s.Cancel(b)
		if got := s.Pending(); got != 2 {
			t.Errorf("Pending() inside A = %d, want 2 (B canceled, C and D left)", got)
		}
	})
	b = s.At(20*time.Millisecond, fire("B"))
	c := s.At(30*time.Millisecond, fire("C"))
	s.At(40*time.Millisecond, fire("D"))
	if got := s.Pending(); got != 4 {
		t.Fatalf("Pending() = %d, want 4", got)
	}
	s.Run(0)
	if got := s.Pending(); got != 0 || fmt.Sprint(fired) != "[A C D]" {
		t.Fatalf("after drain: fired = %v, Pending() = %d; want [A C D], 0", fired, got)
	}
	// Stale ids — one canceled, one run — stay no-ops once new events
	// have taken over the freed slots.
	s.After(time.Millisecond, fire("E"))
	s.After(2*time.Millisecond, fire("F"))
	s.Cancel(b)
	s.Cancel(c)
	// Cancel-then-reuse: G's slot is freed and taken by H; G's id must
	// not reach H.
	g := s.After(3*time.Millisecond, fire("G"))
	s.Cancel(g)
	h := s.After(3*time.Millisecond, fire("H"))
	if g>>32 != h>>32 {
		t.Fatalf("H did not reuse G's slot: ids %#x, %#x", g, h)
	}
	s.Cancel(g)
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending() after stale cancels = %d, want 3", got)
	}
	s.Run(0)
	if fmt.Sprint(fired) != "[A C D E F H]" || s.Pending() != 0 || s.EventsRun() != 6 {
		t.Fatalf("fired = %v, Pending() = %d, EventsRun() = %d; want [A C D E F H], 0, 6", fired, s.Pending(), s.EventsRun())
	}
}

// TestPendingCancelUnderDrain cancels random events — already run,
// already canceled or still pending — from inside running events while
// the queue drains, with the naive model of fuzz_queue_test.go stepped
// in lockstep: Pending agrees inside every event and the executed
// sequence is the model's.
func TestPendingCancelUnderDrain(t *testing.T) {
	const n = 4000
	s, m := New(9), &modelQueue{}
	rng := rand.New(rand.NewSource(13))
	ids := make([]EventID, n)
	var got []string
	for i := range ids {
		i := i
		at := time.Duration(rng.Intn(2000)) * time.Millisecond
		m.schedule(at)
		ids[i] = s.At(at, func() {
			got = append(got, fmt.Sprintf("%d@%v", i, s.Now()))
			m.drain(1, math.MaxInt64)
			if i%7 == 0 {
				victim := rng.Intn(n)
				s.Cancel(ids[victim])
				m.live[victim] = false
			}
			if s.Pending() != m.pending() {
				t.Fatalf("Pending() inside event %d = %d, model %d", i, s.Pending(), m.pending())
			}
		})
	}
	s.Run(0)
	if s.Pending() != 0 || s.EventsRun() != uint64(len(got)) || len(got) == n {
		t.Fatalf("after drain: Pending() = %d, EventsRun() = %d, %d of %d callbacks", s.Pending(), s.EventsRun(), len(got), n)
	}
	sameTrace(t, got, m.trace)
}

// TestWideSpreadOrdering drains a schedule whose timestamps span nine
// orders of magnitude: a microsecond-spaced burst, an hour-spaced tail
// and 300 same-instant ties.
func TestWideSpreadOrdering(t *testing.T) {
	s, m := New(3), &modelQueue{}
	rng := rand.New(rand.NewSource(11))
	var got []string
	add := func(at time.Duration) {
		i := len(m.at)
		m.schedule(at)
		s.At(at, func() { got = append(got, fmt.Sprintf("%d@%v", i, s.Now())) })
	}
	for i := 0; i < 2000; i++ {
		add(time.Duration(rng.Intn(500)) * time.Microsecond)
	}
	for i := 0; i < 50; i++ {
		add(time.Duration(1+rng.Intn(10)) * time.Hour)
	}
	for i := 0; i < 300; i++ {
		add(42 * time.Millisecond)
	}
	s.Run(0)
	m.drain(0, math.MaxInt64)
	sameTrace(t, got, m.trace)
}

// TestWarmQueueAllocatesNothing: once the slot arena, the ring's chunk
// arena and all three tiers have grown to a deep queue's steady state,
// scheduling an event and running one allocates nothing.
func TestWarmQueueAllocatesNothing(t *testing.T) {
	s := New(1)
	rng := rand.New(rand.NewSource(4))
	var n int
	next := func() time.Duration {
		n++
		if n%16 == 0 {
			return Uniform(rng, time.Second, time.Minute) // far tier
		}
		return Uniform(rng, 0, 200*time.Millisecond)
	}
	noop := func() {}
	for i := 0; i < 50_000; i++ {
		s.After(next(), noop)
	}
	for i := 0; i < 500_000; i++ {
		s.After(next(), noop)
		s.Step()
	}
	if allocs := testing.AllocsPerRun(10_000, func() {
		s.After(next(), noop)
		s.Step()
	}); allocs != 0 {
		t.Fatalf("schedule + step on a warm queue: %v allocs, want 0", allocs)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var ran []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		s.At(d, func() { ran = append(ran, d) })
	}
	s.RunUntil(3 * time.Second)
	if len(ran) != 3 {
		t.Fatalf("RunUntil(3s) ran %d events, want 3", len(ran))
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.RunFor(10 * time.Second)
	if len(ran) != 5 {
		t.Fatal("RunFor did not drain remaining events")
	}
	if s.Now() != 13*time.Second {
		t.Fatalf("RunFor advanced clock to %v, want 13s", s.Now())
	}
}

func TestRunMaxEvents(t *testing.T) {
	s := New(1)
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		s.After(time.Millisecond, reschedule)
	}
	s.After(time.Millisecond, reschedule)
	ran := s.Run(100)
	if ran != 100 || count != 100 {
		t.Fatalf("Run(100) executed %d/%d", ran, count)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() []time.Duration {
		s := New(42)
		var stamps []time.Duration
		for i := 0; i < 50; i++ {
			s.After(Exp(s.Rand(), time.Second), func() {
				stamps = append(stamps, s.Now())
			})
		}
		s.Run(0)
		return stamps
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatal("non-deterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestExpMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += Exp(rng, time.Second)
	}
	mean := float64(sum) / n / float64(time.Second)
	if mean < 0.95 || mean > 1.05 {
		t.Fatalf("Exp mean = %.3f s, want ≈1 s", mean)
	}
	if Exp(rng, 0) != 0 {
		t.Fatal("Exp with non-positive mean should be 0")
	}
}

func TestUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lo, hi := 10*time.Millisecond, 20*time.Millisecond
	for i := 0; i < 1000; i++ {
		d := Uniform(rng, lo, hi)
		if d < lo || d > hi {
			t.Fatalf("Uniform out of range: %v", d)
		}
	}
	if got := Uniform(rng, lo, lo); got != lo {
		t.Fatalf("degenerate range = %v, want %v", got, lo)
	}
}

// Inverted bounds must sample the intended range instead of panicking
// (rng.Int63n of a negative span) or collapsing to a constant.
func TestUniformInvertedBoundsNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lo, hi := 100*time.Millisecond, 300*time.Millisecond
	for i := 0; i < 1000; i++ {
		d := Uniform(rng, hi, lo) // deliberately inverted
		if d < lo || d > hi {
			t.Fatalf("Uniform(hi, lo) out of [%v, %v]: %v", lo, hi, d)
		}
	}
}

// A link model whose MinLatency exceeds MaxLatency must still deliver
// with delays in the normalized range.
func TestUniformLinksInvertedLatencyNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	links := UniformLinks{MinLatency: 300 * time.Millisecond, MaxLatency: 100 * time.Millisecond}
	for i := 0; i < 500; i++ {
		d, ok := links.Delay(rng, 0, 1, 100)
		if !ok {
			t.Fatal("lossless link dropped a message")
		}
		if d < 100*time.Millisecond || d > 300*time.Millisecond {
			t.Fatalf("delay %v outside normalized [100ms, 300ms]", d)
		}
	}
}

func TestNetworkSendAndStats(t *testing.T) {
	s := New(3)
	n := NewNetwork(s, UniformLinks{MinLatency: 10 * time.Millisecond, MaxLatency: 20 * time.Millisecond})
	var got []string
	a := n.AddNode(nil)
	b := n.AddNode(func(from NodeID, payload any, size int) {
		got = append(got, payload.(string))
		if from != a {
			t.Errorf("from = %d, want %d", from, a)
		}
		if size != 100 {
			t.Errorf("size = %d", size)
		}
	})
	n.SetHandler(a, func(NodeID, any, int) {})
	n.Send(a, b, "hello", 100)
	s.Run(0)
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivery failed: %v", got)
	}
	st := n.Stats()
	if st.MessagesSent != 1 || st.BytesSent != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if s.Now() < 10*time.Millisecond || s.Now() > 20*time.Millisecond {
		t.Fatalf("delivery latency %v outside link model", s.Now())
	}
}

func TestNetworkDrop(t *testing.T) {
	s := New(5)
	n := NewNetwork(s, UniformLinks{MinLatency: time.Millisecond, MaxLatency: time.Millisecond, DropRate: 1})
	delivered := 0
	a := n.AddNode(func(NodeID, any, int) {})
	b := n.AddNode(func(NodeID, any, int) { delivered++ })
	n.Send(a, b, "x", 1)
	s.Run(0)
	if delivered != 0 {
		t.Fatal("DropRate=1 should drop everything")
	}
	if n.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d", n.Stats().Dropped)
	}
}

func TestNetworkBandwidth(t *testing.T) {
	s := New(5)
	// 1 MB/s bandwidth: a 1 MB message takes ≥ 1 s.
	n := NewNetwork(s, UniformLinks{MinLatency: 0, MaxLatency: 0, BytesPerSec: 1e6})
	a := n.AddNode(func(NodeID, any, int) {})
	var arrival time.Duration
	b := n.AddNode(func(NodeID, any, int) { arrival = s.Now() })
	n.Send(a, b, "big", 1_000_000)
	s.Run(0)
	if arrival != time.Second {
		t.Fatalf("1MB at 1MB/s arrived at %v, want 1s", arrival)
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	s := New(5)
	n := NewNetwork(s, UniformLinks{MinLatency: time.Millisecond, MaxLatency: time.Millisecond})
	delivered := 0
	a := n.AddNode(func(NodeID, any, int) {})
	b := n.AddNode(func(NodeID, any, int) { delivered++ })
	n.Partition(map[NodeID]int{a: 0, b: 1})
	n.Send(a, b, "x", 1)
	s.Run(0)
	if delivered != 0 {
		t.Fatal("partitioned message delivered")
	}
	if n.Stats().Partitioned != 1 {
		t.Fatalf("Partitioned = %d", n.Stats().Partitioned)
	}
	n.Heal()
	n.Send(a, b, "x", 1)
	s.Run(0)
	if delivered != 1 {
		t.Fatal("message not delivered after heal")
	}
}

func TestProcessingBudgetSerializes(t *testing.T) {
	s := New(5)
	n := NewNetwork(s, UniformLinks{MinLatency: 0, MaxLatency: 0})
	var handled []time.Duration
	a := n.AddNode(func(NodeID, any, int) {})
	b := n.AddNode(func(NodeID, any, int) { handled = append(handled, s.Now()) })
	// Each message costs 100 ms of node time.
	n.SetProcessing(func(NodeID, any, int) time.Duration { return 100 * time.Millisecond })
	for i := 0; i < 3; i++ {
		n.Send(a, b, i, 1)
	}
	s.Run(0)
	if len(handled) != 3 {
		t.Fatalf("handled %d messages", len(handled))
	}
	// Messages all arrive at t=0 but must be handled at 0, 100ms, 200ms.
	want := []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond}
	for i := range want {
		if handled[i] != want[i] {
			t.Fatalf("message %d handled at %v, want %v", i, handled[i], want[i])
		}
	}
}

// Occupy must push a node's processing budget forward so later arrivals
// queue behind the aggregate work, and stay a no-op without a model.
func TestOccupyDelaysLaterDeliveries(t *testing.T) {
	s := New(6)
	n := NewNetwork(s, UniformLinks{MinLatency: 0, MaxLatency: 0})
	var handledAt time.Duration
	a := n.AddNode(func(NodeID, any, int) {})
	b := n.AddNode(func(NodeID, any, int) { handledAt = s.Now() })
	n.SetProcessing(func(NodeID, any, int) time.Duration { return 0 })
	n.Occupy(b, 250*time.Millisecond)
	n.Send(a, b, "x", 1)
	s.Run(0)
	if handledAt != 250*time.Millisecond {
		t.Fatalf("delivery at %v, want 250ms behind the occupied budget", handledAt)
	}

	// Without a processing model, Occupy is inert.
	s2 := New(7)
	n2 := NewNetwork(s2, UniformLinks{MinLatency: 0, MaxLatency: 0})
	var at2 time.Duration
	c := n2.AddNode(func(NodeID, any, int) {})
	d := n2.AddNode(func(NodeID, any, int) { at2 = s2.Now() })
	n2.Occupy(d, time.Hour)
	n2.Send(c, d, "x", 1)
	s2.Run(0)
	if at2 != 0 {
		t.Fatalf("Occupy without a model delayed delivery to %v", at2)
	}
}

func TestBroadcastAll(t *testing.T) {
	s := New(5)
	n := NewNetwork(s, UniformLinks{MinLatency: time.Millisecond, MaxLatency: time.Millisecond})
	count := 0
	var ids []NodeID
	for i := 0; i < 5; i++ {
		ids = append(ids, n.AddNode(func(NodeID, any, int) { count++ }))
	}
	n.BroadcastAll(ids[0], "blk", 10)
	s.Run(0)
	if count != 4 {
		t.Fatalf("broadcast reached %d nodes, want 4", count)
	}
}

func TestRegionLinks(t *testing.T) {
	s := New(5)
	links := RegionLinks{
		Region: []int{0, 0, 1},
		Intra:  5 * time.Millisecond,
		Inter:  100 * time.Millisecond,
	}
	n := NewNetwork(s, links)
	var at []time.Duration
	h := func(NodeID, any, int) { at = append(at, s.Now()) }
	a := n.AddNode(h)
	b := n.AddNode(h)
	c := n.AddNode(h)
	n.Send(a, b, "near", 1)
	s.Run(0)
	near := at[len(at)-1]
	n.Send(a, c, "far", 1)
	s.Run(0)
	far := at[len(at)-1] - near
	if near != 5*time.Millisecond {
		t.Fatalf("intra-region latency %v, want 5ms", near)
	}
	if far != 100*time.Millisecond {
		t.Fatalf("inter-region latency %v, want 100ms", far)
	}
}

func TestRandomPeers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, degree = 20, 4
	peers := RandomPeers(rng, n, degree)
	if len(peers) != n {
		t.Fatalf("got %d peer lists", len(peers))
	}
	for i, ps := range peers {
		if len(ps) < degree {
			t.Fatalf("node %d has %d peers, want >= %d", i, len(ps), degree)
		}
		seen := map[NodeID]bool{}
		for _, p := range ps {
			if int(p) == i {
				t.Fatalf("node %d is its own peer", i)
			}
			if seen[p] {
				t.Fatalf("node %d has duplicate peer %d", i, p)
			}
			seen[p] = true
			// symmetry
			found := false
			for _, q := range peers[p] {
				if int(q) == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("peer relation %d->%d not symmetric", i, p)
			}
		}
	}
}

func TestRandomPeersInfeasiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for infeasible degree")
		}
	}()
	RandomPeers(rand.New(rand.NewSource(1)), 3, 3)
}

func TestSendToPeers(t *testing.T) {
	s := New(5)
	n := NewNetwork(s, UniformLinks{MinLatency: time.Millisecond, MaxLatency: time.Millisecond})
	count := 0
	for i := 0; i < 4; i++ {
		n.AddNode(func(NodeID, any, int) { count++ })
	}
	n.SetPeers([][]NodeID{{1, 2}, {0}, {0}, {}})
	n.SendToPeers(0, "gossip", 1)
	s.Run(0)
	if count != 2 {
		t.Fatalf("gossip reached %d peers, want 2", count)
	}
	if n.Peers(3) == nil || len(n.Peers(3)) != 0 {
		t.Fatal("node 3 should have an empty peer list")
	}
	if n.Peers(99) != nil {
		t.Fatal("out-of-range peer query should be nil")
	}
}

func BenchmarkEventLoop(b *testing.B) {
	s := New(1)
	var tick func()
	count := 0
	tick = func() {
		count++
		s.After(time.Microsecond, tick)
	}
	s.After(time.Microsecond, tick)
	b.ResetTimer()
	s.Run(uint64(b.N))
}

// BenchmarkQueueHold is the queue-only hold model: N events pending, and
// each pop schedules one successor a random delay later, so the depth
// stays N. One op is one pop plus one push. The 10⁶-deep cells are
// skipped under -short.
func BenchmarkQueueHold(b *testing.B) {
	laws := []struct {
		name  string
		delay func(*rand.Rand) time.Duration
	}{
		{"exp-100ms", func(r *rand.Rand) time.Duration { return Exp(r, 100*time.Millisecond) }},
		{"uniform-20-200ms", func(r *rand.Rand) time.Duration { return Uniform(r, 20*time.Millisecond, 200*time.Millisecond) }},
	}
	for _, law := range laws {
		for _, n := range []int{1_000, 50_000, 1_000_000} {
			b.Run(fmt.Sprintf("%s/N=%d", law.name, n), func(b *testing.B) {
				if n >= 1_000_000 && testing.Short() {
					b.Skip("10⁶-deep queue skipped under -short")
				}
				s := New(1)
				rng := rand.New(rand.NewSource(1))
				var hold func()
				hold = func() { s.After(law.delay(rng), hold) }
				for i := 0; i < n; i++ {
					s.After(law.delay(rng), hold)
				}
				s.Run(uint64(n)) // one generation of successors: steady state
				b.ResetTimer()
				s.Run(uint64(b.N))
			})
		}
	}
}
