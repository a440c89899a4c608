package sim

// Fuzz oracle for the event queue: a byte-coded schedule / cancel /
// Run(n) / RunUntil program runs on the Simulator and on a naive model
// — a slice of (at, live) entries in schedule order, scanned for the
// minimum — and pop transcript, EventsRun, Pending and Now must agree
// after every step. A heap sift bug, a wrong tie-break, a stale entry
// that executes or a cancel that reaches a reused slot is a divergence.

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// modelQueue is the reference: no heap, no arena, no generations. An
// event's index is its schedule sequence number.
type modelQueue struct {
	now   time.Duration
	at    []time.Duration
	live  []bool
	trace []string // one "index@time" entry per executed event
}

func (m *modelQueue) schedule(at time.Duration) {
	m.at = append(m.at, max(at, m.now))
	m.live = append(m.live, true)
}

func (m *modelQueue) pending() (n int) {
	for _, l := range m.live {
		if l {
			n++
		}
	}
	return n
}

// drain executes live events in (at, index) order until limit have run
// (0 = no limit) or the next one lies after until.
func (m *modelQueue) drain(limit uint64, until time.Duration) {
	for n := uint64(0); limit == 0 || n < limit; n++ {
		best := -1
		for i, l := range m.live {
			if l && (best < 0 || m.at[i] < m.at[best]) {
				best = i // equal times keep the earlier index
			}
		}
		if best < 0 || m.at[best] > until {
			return
		}
		m.live[best] = false
		m.now = m.at[best]
		m.trace = append(m.trace, fmt.Sprintf("%d@%v", best, m.now))
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

func FuzzPopOrder(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 128, 7, 9, 200})
	f.Add([]byte{250, 250, 251, 252, 1, 1, 1, 90, 90, 90, 90, 13})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			t.Skip("longer programs only slow the model's quadratic scan")
		}
		s := New(1)
		m := &modelQueue{}
		var trace []string
		var ids []EventID
		check := func(step int) {
			t.Helper()
			if s.EventsRun() != uint64(len(m.trace)) || s.Pending() != m.pending() || s.Now() != m.now {
				t.Fatalf("after op %d: ran=%d pending=%d now=%v, model ran=%d pending=%d now=%v",
					step, s.EventsRun(), s.Pending(), s.Now(), len(m.trace), m.pending(), m.now)
			}
			sameTrace(t, trace, m.trace)
		}
		for i, op := range ops {
			switch {
			case op >= 64:
				// Schedule: the byte picks a time; clustered values
				// exercise seq tie-breaks, small ones the clamp to now.
				at := time.Duration(op-64) * time.Duration(op%5+1) * time.Millisecond
				tag := len(ids)
				ids = append(ids, s.At(at, func() {
					trace = append(trace, fmt.Sprintf("%d@%v", tag, s.Now()))
				}))
				m.schedule(at)
			case op >= 16 && len(ids) > 0:
				// Cancel any earlier id: pending, already run (its slot
				// possibly reused since) or already canceled.
				victim := int(op) % len(ids)
				s.Cancel(ids[victim])
				m.live[victim] = false
			case op >= 8:
				s.Run(uint64(op % 8))
				m.drain(uint64(op%8), math.MaxInt64)
			default:
				until := time.Duration(op) * 40 * time.Millisecond
				s.RunUntil(until)
				m.drain(0, until)
				m.now = max(m.now, until)
			}
			check(i)
		}
		s.Run(0)
		m.drain(0, math.MaxInt64)
		check(len(ops))
	})
}
