// Package backlog is the one bounded buffer for objects that arrive
// before what they depend on. It has four owners: a chain block waits for
// its parent (the orphan pool), a lattice block for its predecessor or
// source send (the gap buffer), a tangle vertex for a parent, and a Nano
// vote for its candidate block (netsim's pending votes). Each owner parks
// a value under the key it waits for and takes every value waiting on a
// key once that key arrives; the buffer keeps the count bound, the
// optional age bound and the eviction hook in one place.
//
// Eviction is oldest-first by park order. The FIFO is staleness-tolerant:
// Take leaves the taken values' order entries behind, and eviction,
// expiry and compaction skip them. A Park that leaves the order slice
// more than twice as long as the parked count compacts it, so the slice
// stays proportional to what is parked, not to the bound; a Take that
// empties the buffer drops every entry at once.
package backlog

import "time"

// Buffer holds values waiting on keys. Build one with New. A Buffer is
// single-goroutine, like its owners.
type Buffer[K comparable, V comparable] struct {
	waiting map[K]bucket[V] // nil until the first Park
	order   []entry[K, V]   // park order, stale entries included
	gen     uint64          // last bucket generation handed out
	count   int
	limit   int // <= 0 means def
	def     int
	ttl     time.Duration
	now     func() time.Duration // nil while ageing is off
	onEvict func(V)
	evicted int
}

// bucket is the values waiting on one key, in park order. Its generation
// changes whenever the key's bucket is created afresh, so order entries
// from a bucket that was taken never match a later one.
type bucket[V comparable] struct {
	vs  []V
	gen uint64
}

// entry is one park: the value, the key and bucket generation it went
// into, and when (clock time, stamped only while ageing is on).
type entry[K comparable, V comparable] struct {
	v   V
	at  time.Duration
	gen uint64
	key K
}

// New returns an empty buffer bounded by defaultLimit values until
// SetLimit says otherwise.
func New[K comparable, V comparable](defaultLimit int) Buffer[K, V] {
	return Buffer[K, V]{def: defaultLimit}
}

// SetLimit bounds the number of parked values (n <= 0 restores the
// default). The new bound applies from the next Park.
func (b *Buffer[K, V]) SetLimit(n int) { b.limit = n }

// SetTTL enables age-based eviction against the clock now: a value
// parked longer than ttl is evicted on the next Park or Expire, even
// while the buffer is under its count bound. ttl <= 0 or a nil clock
// turns ageing off.
func (b *Buffer[K, V]) SetTTL(ttl time.Duration, now func() time.Duration) {
	if ttl <= 0 {
		now = nil
	}
	b.ttl, b.now = ttl, now
}

// OnEvict installs the hook called with each evicted value — owners use
// it to forget the value's dedup state so it can be delivered again.
func (b *Buffer[K, V]) OnEvict(fn func(V)) { b.onEvict = fn }

// Len is the number of parked values.
func (b *Buffer[K, V]) Len() int { return b.count }

// Evicted is how many values the count and age bounds have evicted.
func (b *Buffer[K, V]) Evicted() int { return b.evicted }

// Waiting returns the values parked under k, in park order. The slice
// belongs to the buffer: read it, do not keep or modify it.
func (b *Buffer[K, V]) Waiting(k K) []V { return b.waiting[k].vs }

// Park adds v under k after expiring aged-out values, then evicts the
// oldest values while the buffer is over its bound.
func (b *Buffer[K, V]) Park(k K, v V) {
	b.Expire()
	if b.waiting == nil {
		b.waiting = make(map[K]bucket[V])
	}
	bkt := b.waiting[k]
	if len(bkt.vs) == 0 {
		b.gen++
		bkt.gen = b.gen
	}
	bkt.vs = append(bkt.vs, v)
	b.waiting[k] = bkt
	b.count++
	e := entry[K, V]{v: v, gen: bkt.gen, key: k}
	if b.now != nil {
		e.at = b.now()
	}
	b.order = append(b.order, e)
	limit := b.limit
	if limit <= 0 {
		limit = b.def
	}
	for b.count > limit {
		if !b.evictOldest() {
			break
		}
	}
	if len(b.order) > 2*b.count {
		live := b.order[:0]
		for _, e := range b.order {
			if b.live(e) {
				live = append(live, e)
			}
		}
		b.order = live
	}
}

// Take removes and returns every value parked under k, in park order.
// The caller owns the returned slice.
func (b *Buffer[K, V]) Take(k K) []V {
	bkt, ok := b.waiting[k]
	if !ok {
		return nil
	}
	delete(b.waiting, k)
	b.count -= len(bkt.vs)
	if b.count == 0 {
		// Every order entry is stale now: drop them all, keeping the
		// array, so a buffer that drains between bursts stays small.
		b.order = b.order[:0]
	}
	return bkt.vs
}

// Expire evicts every value parked longer than the TTL. The FIFO order is
// also time order (the clock is monotonic), so only the front is ever
// inspected — O(1) amortized per call.
func (b *Buffer[K, V]) Expire() {
	if b.now == nil {
		return
	}
	cutoff := b.now() - b.ttl
	for len(b.order) > 0 {
		e := b.order[0]
		if !b.live(e) {
			b.order = b.order[1:]
			continue
		}
		if e.at > cutoff {
			return
		}
		b.evictOldest()
	}
}

// Clone returns an independent copy of the parked values, the order, the
// bounds and the eviction count. The hook is not carried over: it belongs
// to the owner, and each owner installs its own.
func (b *Buffer[K, V]) Clone() Buffer[K, V] {
	c := *b
	c.onEvict = nil
	c.order = append([]entry[K, V](nil), b.order...)
	c.waiting = nil
	if len(b.waiting) > 0 {
		c.waiting = make(map[K]bucket[V], len(b.waiting))
		for k, bkt := range b.waiting {
			c.waiting[k] = bucket[V]{vs: append([]V(nil), bkt.vs...), gen: bkt.gen}
		}
	}
	return c
}

// live reports whether an order entry's value still waits: its key's
// bucket is the one it was parked into, and the value is in it. Equal
// values in one bucket are interchangeable, so an entry counts as live
// while any copy of its value remains.
func (b *Buffer[K, V]) live(e entry[K, V]) bool {
	bkt := b.waiting[e.key]
	if bkt.gen != e.gen {
		return false
	}
	for _, w := range bkt.vs {
		if w == e.v {
			return true
		}
	}
	return false
}

// evictOldest drops the oldest still-parked value and calls the hook.
// It reports false when every order entry was stale.
func (b *Buffer[K, V]) evictOldest() bool {
	for len(b.order) > 0 {
		e := b.order[0]
		b.order = b.order[1:]
		if !b.live(e) {
			continue
		}
		bkt := b.waiting[e.key]
		i := 0
		for bkt.vs[i] != e.v {
			i++
		}
		if len(bkt.vs) == 1 {
			delete(b.waiting, e.key)
		} else {
			bkt.vs = append(bkt.vs[:i:i], bkt.vs[i+1:]...)
			b.waiting[e.key] = bkt
		}
		b.count--
		b.evicted++
		if b.onEvict != nil {
			b.onEvict(e.v)
		}
		return true
	}
	return false
}
