package belief

// Storage reports what b holds between updates: its class header slots
// (cls to capacity), its classes, whether they are the support (every
// class one hypothesis), the queue entries its slab holds and those its
// classes' windows use.
func Storage(b *Exact) (slots, classes int, single bool, held, used int) {
	for k := range b.cls {
		used += len(b.cls[k].S.Queue)
	}
	return cap(b.cls), len(b.cls), len(b.cls) == len(b.mem), cap(b.slab), used
}

// SupportHeaders reports the per-hypothesis support headers b keeps
// beside shared classes: slots to capacity, and those the last update
// that used them wrote.
func SupportHeaders(b *Exact) (slots, used int) { return cap(b.sup), len(b.sup) }
