package backlog

import "testing"

// A buffer that never drains (one value parked for good) while other keys
// come and go must keep its order slice proportional to what is parked:
// Take leaves stale entries behind, and Park compacts them away once they
// outnumber the live ones, long before the count bound is near.
func TestBacklogOrderBoundedByParked(t *testing.T) {
	b := New[int, int](1024)
	b.Park(-1, -1) // the permanent value
	for i := 0; i < 10000; i++ {
		b.Park(i, i)
		if got, parked := len(b.order), b.Len(); got > 2*parked {
			t.Fatalf("cycle %d: order holds %d entries for %d parked values", i, got, parked)
		}
		if vs := b.Take(i); len(vs) != 1 || vs[0] != i {
			t.Fatalf("cycle %d: Take = %v", i, vs)
		}
	}
	if vs := b.Waiting(-1); len(vs) != 1 || b.Len() != 1 || b.Evicted() != 0 {
		t.Fatalf("permanent value lost: waiting %v, Len %d, Evicted %d", vs, b.Len(), b.Evicted())
	}
}
