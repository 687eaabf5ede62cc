package belief

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"modelcc/internal/model"
)

// PageLen is the length of a queue page.
const PageLen = pageLen

// Storage reports what b holds between updates: its class header slots
// (cls to capacity), its classes, whether they are the support (every
// class one hypothesis), the queue entries its pages and long arrays
// hold and those its classes' windows use.
func Storage(b *Exact) (slots, classes int, single bool, held, used int) {
	for k := range b.cls {
		used += len(b.cls[k].S.Queue)
	}
	for _, a := range QueueArrays(b) {
		held += len(a)
	}
	return cap(b.cls), len(b.cls), len(b.cls) == len(b.mem), held, used
}

// QueueArrays returns the arrays b keeps its class queues on: its pages,
// then its long queues' arrays.
func QueueArrays(b *Exact) [][]model.QPkt { return slices.Concat(b.pages, b.long) }

// SupportHeaders reports the per-hypothesis support headers b keeps
// beside shared classes: slots to capacity, and those the last update
// that used them wrote.
func SupportHeaders(b *Exact) (slots, used int) { return cap(b.sup), len(b.sup) }

// CheckQueueArrays fails t unless every class queue of b is a window of
// its own on one of b's queue arrays, each a page or a power-of-two
// array holding one queue longer than a page.
func CheckQueueArrays(t *testing.T, b *Exact) {
	t.Helper()
	queueArrays(t, "the belief", b, make(map[*model.QPkt]string))
}

// CheckPageOwners fails t unless the queue arrays of the beliefs in bs,
// all on one pool, and the pool's store have one owner each: every array
// is held by exactly one belief or lies in the store, never both; no
// two class windows overlap; and the store has made exactly the arrays
// held and stored. It returns each array's holder: its belief's index
// in bs, or -1 for the store.
func CheckPageOwners(t *testing.T, bs []*Exact) map[*model.QPkt]int {
	t.Helper()
	owners := make(map[*model.QPkt]string)
	holder := make(map[*model.QPkt]int)
	for i, b := range bs {
		queueArrays(t, fmt.Sprintf("belief %d", i), b, owners)
		for _, a := range QueueArrays(b) {
			holder[unsafe.SliceData(a)] = i
		}
	}
	ar := bs[0].arena()
	for n, l := range ar.pages {
		for i, a := range l {
			if len(a) != n {
				t.Fatalf("the store keeps an array of %d entries under %d", len(a), n)
			}
			own(t, owners, unsafe.SliceData(a), fmt.Sprintf("the store's array %d of %d entries", i, n))
			holder[unsafe.SliceData(a)] = -1
		}
	}
	if ar.made != len(holder) {
		t.Fatalf("the store made %d queue arrays; the beliefs hold and it keeps %d", ar.made, len(holder))
	}
	return holder
}
