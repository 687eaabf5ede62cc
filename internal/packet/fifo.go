package packet

// FIFO is a first-in-first-out queue of packets that costs O(1) per
// packet and allocates nothing once it has grown to its peak backlog.
// Pops advance a head index instead of shifting the backlog; the live
// window moves back to the front of the array whenever the dead prefix is
// at least as long as it, so the array never holds more than twice the
// backlog and each compaction copies no more packets than left since the
// last one. The zero value is an empty queue.
type FIFO struct {
	buf  []Packet
	head int
}

// Len reports the number of queued packets.
func (q *FIFO) Len() int { return len(q.buf) - q.head }

// Push appends p at the tail.
func (q *FIFO) Push(p Packet) { q.buf = append(q.buf, p) }

// Pop removes and returns the head packet; ok is false when the queue is
// empty.
func (q *FIFO) Pop() (p Packet, ok bool) {
	if q.head == len(q.buf) {
		return Packet{}, false
	}
	p = q.buf[q.head]
	q.head++
	q.compact()
	return p, true
}

// PopBack removes and returns the tail packet (a push-out drop); ok is
// false when the queue is empty.
func (q *FIFO) PopBack() (p Packet, ok bool) {
	if q.head == len(q.buf) {
		return Packet{}, false
	}
	p = q.buf[len(q.buf)-1]
	q.buf = q.buf[:len(q.buf)-1]
	q.compact()
	return p, true
}

// compact moves the live window to the front once the dead prefix is at
// least as long as it.
func (q *FIFO) compact() {
	if 2*q.head >= len(q.buf) {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
}
