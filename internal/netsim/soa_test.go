package netsim

import (
	"testing"
)

// TestBitRowsGrowRepack pins that widening the stride preserves every
// row's bits at their original in-row offsets. testSet reads each bit
// before setting it, so the checks below read the state the grow left.
func TestBitRowsGrowRepack(t *testing.T) {
	r := newBitRows(3, 8) // stride 1 word
	r.testSet(0, 5)
	r.testSet(1, 63)
	r.testSet(2, 0)
	r.testSet(1, 200) // forces a grow+repack
	for _, c := range []struct {
		node int
		id   int32
	}{{0, 5}, {1, 63}, {2, 0}, {1, 200}} {
		if !r.testSet(c.node, c.id) {
			t.Fatalf("bit (%d,%d) lost across grow", c.node, c.id)
		}
	}
	if r.testSet(0, 63) || r.testSet(2, 200) || r.testSet(1, 5) {
		t.Fatal("grow smeared bits across rows")
	}
}
