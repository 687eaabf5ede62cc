package belief

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"modelcc/internal/model"
)

// PageLen is the length of a queue page.
const PageLen = pageLen

// HdrPageLen is the length of a header page.
const HdrPageLen = hdrPageLen

// Storage reports what b holds between updates: its header pages, its
// classes, whether they are the support (every class one hypothesis),
// the queue entries its pages and long arrays hold and those its
// classes' windows use.
func Storage(b *Exact) (hdrPages, classes int, single bool, held, used int) {
	for k := range b.nc {
		used += len(b.class(k).S.Queue)
	}
	for _, a := range QueueArrays(b) {
		held += len(a)
	}
	return len(b.hdrs), b.nc, b.nc == len(b.mem), held, used
}

// QueueArrays returns the arrays b keeps its class queues on: its pages,
// then its long queues' arrays.
func QueueArrays(b *Exact) [][]model.QPkt { return slices.Concat(b.pages, b.long) }

// HeaderPages returns the pages b keeps its class headers on, in order.
func HeaderPages(b *Exact) [][]Hypothesis { return b.hdrs }

// HeaderStore reports how many header pages lie in the store of b's
// pool.
func HeaderStore(b *Exact) int { return len(b.arena().hdrStore) }

// CheckQueueArrays fails t unless every class queue of b is a window of
// its own on one of b's queue arrays, each a page or a power-of-two
// array holding one queue longer than a page, and b holds exactly the
// header pages its classes need, cleared past them.
func CheckQueueArrays(t *testing.T, b *Exact) {
	t.Helper()
	queueArrays(t, "the belief", b, make(map[*model.QPkt]string))
	headerPages(t, "the belief", b, make(map[*Hypothesis]string))
}

// CheckPageOwners fails t unless the queue arrays and header pages of
// the beliefs in bs, all on one pool, and the pool's stores have one
// owner each: every array is held by exactly one belief or lies in a
// store, never both; no two class windows overlap; the header store's
// pages are cleared; and the stores have made exactly the arrays held
// and stored. It returns each queue array's holder: its belief's index
// in bs, or -1 for the store.
func CheckPageOwners(t *testing.T, bs []*Exact) map[*model.QPkt]int {
	t.Helper()
	owners := make(map[*model.QPkt]string)
	holder := make(map[*model.QPkt]int)
	hdrOwners := make(map[*Hypothesis]string)
	for i, b := range bs {
		queueArrays(t, fmt.Sprintf("belief %d", i), b, owners)
		headerPages(t, fmt.Sprintf("belief %d", i), b, hdrOwners)
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
	for i, p := range ar.hdrStore {
		if len(p) != hdrPageLen || slices.ContainsFunc(p, notZero) {
			t.Fatalf("the header store's page %d holds %d entries, not %d cleared ones", i, len(p), hdrPageLen)
		}
		own(t, hdrOwners, &p[0], fmt.Sprintf("the header store's page %d", i))
	}
	if ar.made != len(holder)+len(hdrOwners) {
		t.Fatalf("the stores made %d arrays; the beliefs hold and they keep %d queue arrays and %d header pages", ar.made, len(holder), len(hdrOwners))
	}
	return holder
}

// headerPages checks b's header pages: exactly ⌈classes/hdrPageLen⌉, each
// hdrPageLen entries, those past the classes cleared. It records each
// page in owners under name, failing on one another owner holds.
func headerPages(t *testing.T, name string, b *Exact, owners map[*Hypothesis]string) {
	t.Helper()
	if want := (b.nc + hdrPageLen - 1) / hdrPageLen; len(b.hdrs) != want {
		t.Fatalf("%s holds %d header pages for %d classes, want %d", name, len(b.hdrs), b.nc, want)
	}
	for i, p := range b.hdrs {
		if len(p) != hdrPageLen {
			t.Fatalf("%s's header page %d holds %d entries", name, i, len(p))
		}
		own(t, owners, &p[0], fmt.Sprintf("%s's header page %d", name, i))
	}
	if r := b.nc % hdrPageLen; r > 0 && slices.ContainsFunc(b.hdrs[len(b.hdrs)-1][r:], notZero) {
		t.Fatalf("%s's last header page holds an entry past its %d classes", name, b.nc)
	}
}

func notZero(h Hypothesis) bool { return !reflect.ValueOf(h).IsZero() }
