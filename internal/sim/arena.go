package sim

import (
	"math/bits"
	"unsafe"
)

// pageBytes bounds an arena page: about 64 KB, rounded down to a
// power-of-two item count (1 024 slots of 40 B, 128 chunks of 512 B).
// Small pages keep a small network's queue small; 1 024-chunk pages of
// 776-byte chunks (776 KB) pushed an 8-node Ethereum network past its
// heap budget.
const pageBytes = 64 << 10

// arena is a growable array of T held in fixed pages and indexed by
// int32. Growing allocates one page and copies nothing, so no dead
// predecessor is left for the collector, and a pointer from at stays
// valid for the arena's life.
type arena[T any] struct {
	pages [][]T
	n     int32 // items handed out by grow
	shift uint8 // log2 of the items per page
}

func newArena[T any]() arena[T] {
	var zero T
	per := max(pageBytes/unsafe.Sizeof(zero), 1)
	return arena[T]{shift: uint8(bits.Len(uint(per)) - 1)}
}

// at returns item i, which grow has handed out.
func (a *arena[T]) at(i int32) *T {
	return &a.pages[i>>a.shift][i&(1<<a.shift-1)]
}

// grow hands out the next item and its address, allocating a page when
// the last one is full.
func (a *arena[T]) grow() (int32, *T) {
	if int(a.n) == len(a.pages)<<a.shift {
		a.pages = append(a.pages, make([]T, 1<<a.shift))
	}
	a.n++
	return a.n - 1, a.at(a.n - 1)
}
