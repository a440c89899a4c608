package backlog

// Fuzz oracle for the buffer: a byte-coded park / take / limit change /
// clock advance + expire / TTL change / clone program runs on a Buffer
// and on a naive model — a slice of (key, v, at, live) entries in park
// order, scanned for the oldest live entry — and contents, Len, Evicted
// and the hook's eviction transcript must agree after every step. A
// stale order entry that evicts, a taken value that resurfaces, a wrong
// eviction end or a clone that shares state is a divergence.

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

const (
	fuzzKeys     = 4
	fuzzDefLimit = 4
)

type modelEntry struct {
	key, v uint8
	at     time.Duration
	live   bool
}

// model is the reference: no map, no generations, no compaction.
type model struct {
	entries []modelEntry
	limit   int
	ttl     time.Duration
	evicted int
	hooked  bool
	calls   []uint8 // hook transcript
}

func (m *model) len() (n int) {
	for _, e := range m.entries {
		if e.live {
			n++
		}
	}
	return n
}

func (m *model) oldest() int {
	for i, e := range m.entries {
		if e.live {
			return i
		}
	}
	return -1
}

func (m *model) evict(i int) {
	m.entries[i].live = false
	m.evicted++
	if m.hooked {
		m.calls = append(m.calls, m.entries[i].v)
	}
}

func (m *model) expire(now time.Duration) {
	if m.ttl <= 0 {
		return
	}
	for i := m.oldest(); i >= 0 && m.entries[i].at <= now-m.ttl; i = m.oldest() {
		m.evict(i)
	}
}

func (m *model) park(k, v uint8, now time.Duration) {
	m.expire(now)
	e := modelEntry{key: k, v: v, live: true}
	if m.ttl > 0 {
		e.at = now
	}
	m.entries = append(m.entries, e)
	limit := m.limit
	if limit <= 0 {
		limit = fuzzDefLimit
	}
	for m.len() > limit {
		m.evict(m.oldest())
	}
}

// waiting lists the live values under k in park order; take also kills
// them.
func (m *model) waiting(k uint8, take bool) []uint8 {
	var out []uint8
	for i, e := range m.entries {
		if e.live && e.key == k {
			out = append(out, e.v)
			if take {
				m.entries[i].live = false
			}
		}
	}
	return out
}

func (m *model) clone() *model {
	c := *m
	c.entries = slices.Clone(m.entries)
	c.calls = nil
	c.hooked = false
	return &c
}

func FuzzBacklog(f *testing.F) {
	f.Add([]byte{0x01, 0x05, 0x09, 0x0d, 0x11, 0x02, 0x60, 0x03})
	f.Add([]byte{0xc2, 0x00, 0x24, 0xa5, 0x08, 0x61, 0x00, 0xbf, 0x04, 0xe1, 0x25})
	f.Add([]byte{0x83, 0x00, 0x00, 0x00, 0x00, 0x00, 0x62, 0x00, 0xe0, 0x81, 0x04, 0x00})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			t.Skip("longer programs only slow the model's scans")
		}
		now := time.Duration(0)
		clock := func() time.Duration { return now }
		var calls []uint8
		hook := func(v uint8) { calls = append(calls, v) }
		buf := New[uint8, uint8](fuzzDefLimit)
		b := &buf
		b.OnEvict(hook)
		m := &model{hooked: true}

		check := func(step int, what string) {
			t.Helper()
			if b.Len() != m.len() || b.Evicted() != m.evicted {
				t.Fatalf("after op %d (%s): Len %d Evicted %d, model %d %d", step, what, b.Len(), b.Evicted(), m.len(), m.evicted)
			}
			if !slices.Equal(calls, m.calls) {
				t.Fatalf("after op %d (%s): hook saw %v, model %v", step, what, calls, m.calls)
			}
			for k := uint8(0); k < fuzzKeys; k++ {
				if got, want := b.Waiting(k), m.waiting(k, false); !slices.Equal(got, want) {
					t.Fatalf("after op %d (%s): key %d holds %v, model %v", step, what, k, got, want)
				}
			}
		}
		for i, op := range ops {
			arg := op & 31
			var what string
			switch op >> 5 {
			case 0, 1, 2:
				k, v := arg%fuzzKeys, arg/fuzzKeys
				what = fmt.Sprintf("park %d<-%d", k, v)
				b.Park(k, v)
				m.park(k, v, now)
			case 3:
				k := arg % fuzzKeys
				what = fmt.Sprintf("take %d", k)
				if got, want := b.Take(k), m.waiting(k, true); !slices.Equal(got, want) {
					t.Fatalf("op %d (%s) returned %v, model %v", i, what, got, want)
				}
			case 4:
				n := int(arg%8) - 1
				what = fmt.Sprintf("limit %d", n)
				b.SetLimit(n)
				m.limit = n
			case 5:
				now += time.Duration(arg) * 100 * time.Millisecond
				what = fmt.Sprintf("expire @%v", now)
				b.Expire()
				m.expire(now)
			case 6:
				ttl := time.Duration(arg%4) * 500 * time.Millisecond
				what = fmt.Sprintf("ttl %v", ttl)
				b.SetTTL(ttl, clock)
				m.ttl = ttl
			case 7:
				// Clone, then wreck the original: the clone must not
				// notice, and carries no hook until one is installed.
				what = "clone"
				old := b
				c := b.Clone()
				b = &c
				m = m.clone()
				calls = nil
				old.OnEvict(nil)
				old.SetLimit(1)
				for k := uint8(0); k < fuzzKeys; k++ {
					old.Park(k, k)
					old.Take(k)
				}
				if arg&1 == 1 {
					b.OnEvict(hook)
					m.hooked = true
				}
			}
			check(i, what)
		}
	})
}
