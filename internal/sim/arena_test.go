package sim

// The paged arenas under the event queue: a queue deep enough to fill
// several slot and chunk pages pops in the naive model's order, a pointer
// into an arena survives its growth, a pending delivery costs a pinned
// number of heap bytes and growing the queue copies nothing, and the
// fields a slot narrows are guarded where networks and nodes are made.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestArenaPointersSurviveGrowth(t *testing.T) {
	a := newArena[[64]byte]() // 1 024 items a page
	per := int32(1) << a.shift
	var ptrs []*[64]byte
	for i := int32(0); i < 3*per+1; i++ {
		j, p := a.grow()
		if j != i || a.at(j) != p {
			t.Fatalf("grow %d handed out item %d at %p, at(%d) = %p", i, j, p, j, a.at(j))
		}
		p[0], p[63] = byte(i), byte(i>>8)
		ptrs = append(ptrs, p)
	}
	if len(a.pages) != 4 {
		t.Fatalf("%d items of %d a page fill %d pages, want 4", a.n, per, len(a.pages))
	}
	for i, p := range ptrs {
		if a.at(int32(i)) != p || p[0] != byte(i) || p[63] != byte(i>>8) {
			t.Fatalf("item %d moved or changed after later growth", i)
		}
	}
}

func TestArenaPagesHoldPowerOfTwoItems(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 40 {
		t.Fatalf("slot is %d bytes, want 40", got)
	}
	for _, c := range []struct {
		name      string
		shift     uint8
		item, per uintptr
	}{
		{"slot", newArena[slot]().shift, unsafe.Sizeof(slot{}), 1024},
		{"chunk", newArena[chunk]().shift, unsafe.Sizeof(chunk{}), 64},
	} {
		if per := uintptr(1) << c.shift; per != c.per || per*c.item > pageBytes {
			t.Errorf("%s page: %d items of %d B, want %d within %d B", c.name, per, c.item, c.per, pageBytes)
		}
	}
}

// TestQueueAcrossPages drives deliveries, At callbacks and elided
// arrivals through at least three slot pages and three chunk pages, with
// cancels (one on the third slot page or later), zero and forged ids past
// the arena's end, and freed slots reused before the arena grows again,
// and holds pop order, EventsRun, Pending and Now to FuzzPopOrder's naive
// model at every RunUntil cut.
func TestQueueAcrossPages(t *testing.T) {
	s := New(1)
	links := &UniformLinks{} // set to one delay before each send
	n := NewNetwork(s, links)
	m := &modelQueue{}
	var trace, inside []string
	record := func(tag int) {
		trace = append(trace, fmt.Sprintf("%d@%v", tag, s.Now()))
		inside = append(inside, fmt.Sprintf("%d/%d", s.EventsRun(), s.Pending()))
	}
	deliver := func(_ NodeID, payload any, _ int) { record(payload.(int)) }
	n.AddNode(deliver)
	n.AddNode(deliver)
	rng := rand.New(rand.NewSource(7))
	ids := map[int]EventID{} // model index of each At event → its id
	// Four in five events land in the ring's 268 ms, the rest up to 30 s
	// ahead in far.
	delay := func() time.Duration {
		if rng.Intn(5) == 0 {
			return Uniform(rng, 300*time.Millisecond, 30*time.Second)
		}
		return Uniform(rng, 0, 260*time.Millisecond)
	}
	fill := func(count int) {
		for i := 0; i < count; i++ {
			tag, d := len(m.at), delay()
			switch rng.Intn(4) {
			case 0, 1:
				*links = UniformLinks{MinLatency: d, MaxLatency: d}
				n.Send(0, 1, tag, 100)
				m.schedule(s.Now() + d)
			case 2:
				ids[tag] = s.At(s.Now()+d, func() { record(tag) })
				m.schedule(s.Now() + d)
			default:
				*links = UniformLinks{MinLatency: d, MaxLatency: d}
				at, elided := n.SendDuplicate(0, 1, tag, 100)
				if !elided {
					t.Fatal("SendDuplicate without a processing model did not elide")
				}
				m.elide(at)
			}
		}
	}
	// cancel cancels every k-th At event still live in the model and
	// returns the highest slot index it canceled.
	cancel := func(k int) (top int32) {
		i := 0
		for tag := 0; tag < len(m.at); tag++ {
			id, ok := ids[tag]
			if !ok || !m.live[tag] {
				continue
			}
			if i++; i%k == 0 {
				s.Cancel(id)
				m.live[tag] = false
				top = max(top, int32(id>>32)-1)
			}
		}
		return top
	}
	check := func(when string) {
		t.Helper()
		if s.EventsRun() != m.eventsRun() || s.Pending() != m.pending() || s.Now() != m.now {
			t.Fatalf("%s: ran=%d pending=%d now=%v, model ran=%d pending=%d now=%v",
				when, s.EventsRun(), s.Pending(), s.Now(), m.eventsRun(), m.pending(), m.now)
		}
		sameTrace(t, trace, m.trace)
		sameTrace(t, inside, m.inside)
	}
	cut := func(until time.Duration) {
		t.Helper()
		s.RunUntil(until)
		m.drain(0, until)
		m.now = max(m.now, until)
		check(fmt.Sprintf("RunUntil(%v)", until))
	}

	fill(4500)
	per := int32(1) << s.slots.shift
	if len(s.slots.pages) < 3 || len(s.chunks.pages) < 3 {
		t.Fatalf("filled %d slot and %d chunk pages, want 3 of each", len(s.slots.pages), len(s.chunks.pages))
	}
	if top := cancel(7); top < 2*per {
		t.Fatalf("latest cancel hit slot %d, want one on the third page or later (from %d)", top, 2*per)
	}
	end := uint64(s.slots.n)
	for _, id := range []EventID{0, EventID((end + 1) << 32), EventID((end+1)<<32 | 1), EventID((end + 5000) << 32)} {
		s.Cancel(id) // no event has these ids: the model does nothing
	}
	check("after the fill")
	for _, d := range []time.Duration{0, time.Millisecond, 3 * time.Millisecond, 40 * time.Millisecond, 150 * time.Millisecond} {
		cut(d)
	}
	// Freed slots are reused, and the arena grows past them.
	first, grown := s.slots.at(0), s.slots.n
	fill(3000)
	cancel(5)
	check("after the second fill")
	if s.slots.n <= grown || s.slots.at(0) != first {
		t.Fatalf("slot 0 moved, or the arena did not grow past %d slots", grown)
	}
	for until := s.Now(); s.Pending() > 0; {
		until += 97 * time.Millisecond
		cut(until)
	}
	s.Run(0)
	m.drain(0, math.MaxInt64)
	check("after the drain")
	if len(trace) < 4000 {
		t.Fatalf("only %d events ran", len(trace))
	}
}

// TestQueueMemoryPerPendingEvent pins what a pending delivery costs: a
// 40-byte slot and a 24-byte item in a ring chunk, in pages of about
// 64 KB. The live heap after 100 000 Sends is held to the measured bytes
// per event (69.2) within 10 %, and the bytes allocated while filling to
// at most 1.1 times the live heap, which holds only when growth copies
// nothing. 64-byte slots and chunks in slices grown by append read
// 97.3 B per event live and allocate 4.44 times that while filling.
func TestQueueMemoryPerPendingEvent(t *testing.T) {
	const events = 100_000
	const perEvent = 69.2
	runtime.GC()
	var before, filled, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New(1)
	n := NewNetwork(s, UniformLinks{MinLatency: 20 * time.Millisecond, MaxLatency: 200 * time.Millisecond})
	noop := func(NodeID, any, int) {}
	n.AddNode(noop)
	n.AddNode(noop)
	for i := 0; i < events; i++ {
		n.Send(0, 1, nil, 100)
	}
	runtime.ReadMemStats(&filled)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s.Pending() != events {
		t.Fatalf("%d events pending, want %d", s.Pending(), events)
	}
	runtime.KeepAlive(s)
	live := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
	total := float64(filled.TotalAlloc - before.TotalAlloc)
	t.Logf("%.1f B live and %.1f B allocated per pending delivery", live/events, total/events)
	if got := live / events; math.Abs(got-perEvent) > perEvent/10 {
		t.Errorf("a pending delivery holds %.1f B of heap, want %.1f ± 10 %%", got, perEvent)
	}
	if total > 1.1*live {
		t.Errorf("filling the queue allocated %.0f B for %.0f B live (%.2f×), want at most 1.1×", total, live, total/live)
	}
}

func TestNewNetworkPanicsPast256(t *testing.T) {
	s := New(1)
	for i := 0; i < 256; i++ {
		if n := NewNetwork(s, UniformLinks{}); int(n.id) != i {
			t.Fatalf("network %d got index %d", i, n.id)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 257th network on one simulator did not panic")
		}
	}()
	NewNetwork(s, UniformLinks{})
}

func TestNodeIDFitsInt32(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("an int cannot pass math.MaxInt32")
	}
	last := int64(math.MaxInt32 - 1) // the last index an int32 NodeID holds
	if id := nodeID(int(last)); int64(id) != last {
		t.Fatalf("nodeID(%d) = %d", last, id)
	}
	for _, i := range []int64{last + 1, last + 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("node index %d did not panic", i)
				}
			}()
			nodeID(int(i))
		}()
	}
}

// pageCrossingSeed is the committed FuzzPopOrder corpus entry whose
// schedules fill the first slot page before anything frees a slot.
const pageCrossingSeed = "testdata/fuzz/FuzzPopOrder/page-crossing"

func TestPageCrossingSeedCrossesTheFirstSlotPage(t *testing.T) {
	data, err := os.ReadFile(pageCrossingSeed)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s is not a one-value corpus file", pageCrossingSeed)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	ops, err := strconv.Unquote(lit)
	if !ok || !ok2 || err != nil {
		t.Fatalf("%s: %q is not a []byte literal", pageCrossingSeed, lines[1])
	}
	leading := 0 // At ops before the first op that can free a slot
	for leading < len(ops) && ops[leading] >= 64 {
		leading++
	}
	if per := 1 << newArena[slot]().shift; leading <= per {
		t.Fatalf("%d schedules before the first run or cancel fit the first %d-slot page", leading, per)
	}
	runPopProgram(t, []byte(ops))
}
