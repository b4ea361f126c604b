package packet

// Pool is a free list of packets or staged records for one simulation
// shard. The shard's goroutine is its only user, so it needs no lock, and
// unlike sync.Pool it keeps its contents across garbage collections.
//
// The ownership rule: a packet or record has exactly one owner at a time.
// A record belongs to the NIC that staged it until the link takes it or
// the NIC evicts it. A packet belongs to the link that carries it, the
// switch that buffers it, the NIC that receives it. Whoever holds it
// where its life ends calls Put on its own shard's pool, which need not
// be the pool it came from. Nothing may read it after Put.
type Pool[T Packet | Staged] struct {
	free            []*T
	taken, returned uint64
}

// Get returns a zeroed T, recycled when the free list has one. A nil pool
// allocates every T, for callers without a shard.
func (pl *Pool[T]) Get() *T {
	if pl == nil {
		return new(T)
	}
	pl.taken++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free = pl.free[:n-1]
		return p
	}
	return new(T)
}

// Put zeroes p and keeps it for a later Get. Zeroing makes a stale reader
// see an impossible packet (id 0, flow 0, no route) rather than plausible
// data. A nil pool leaves p to the garbage collector, untouched.
func (pl *Pool[T]) Put(p *T) {
	if pl == nil {
		return
	}
	var zero T
	*p = zero
	pl.returned++
	pl.free = append(pl.free, p)
}

// Counts returns how many items Get has handed out and Put has taken
// back. Summed over every pool of a simulation, taken − returned is the
// number still held somewhere.
func (pl *Pool[T]) Counts() (taken, returned uint64) { return pl.taken, pl.returned }
