package obs

// ring keeps the newest size entries in arrival order: the flight
// recorder's finished spans and the ASH samples. Its buffer grows by append
// up to size (an owner may allocate it whole). Its owner holds the lock.
type ring[T any] struct {
	buf  []T
	size int
	next int // once the buffer is full: the oldest entry, overwritten next
}

// add appends v and returns the entry it overwrote (the zero T while the
// ring is still filling).
func (r *ring[T]) add(v T) (old T) {
	if len(r.buf) < r.size {
		r.buf = append(r.buf, v)
		return old
	}
	old, r.buf[r.next] = r.buf[r.next], v
	r.next = (r.next + 1) % r.size
	return old
}

// all returns a copy of the entries, oldest first.
func (r *ring[T]) all() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// reset drops every entry and keeps the buffer.
func (r *ring[T]) reset() {
	clear(r.buf)
	r.buf, r.next = r.buf[:0], 0
}
