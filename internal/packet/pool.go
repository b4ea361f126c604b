package packet

// Pool is a free list of packets for one simulation shard. The shard's
// goroutine is its only user, so it needs no lock, and unlike sync.Pool it
// keeps its contents across garbage collections.
//
// The ownership rule: a packet has exactly one owner at a time — the NIC
// that stages it, the link that carries it, the switch that buffers it,
// the NIC that receives it. Whoever holds it where its life ends calls Put
// on its own shard's pool, which need not be the pool the packet came
// from. Nothing may read the packet after Put.
type Pool struct {
	free            []*Packet
	taken, returned uint64
}

// Get returns a zeroed packet, recycled when the free list has one. A nil
// pool allocates every packet, for callers without a shard.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return new(Packet)
	}
	pl.taken++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free = pl.free[:n-1]
		return p
	}
	return new(Packet)
}

// Put zeroes p and keeps it for a later Get. Zeroing makes a stale reader
// see an impossible packet (id 0, flow 0, no route) rather than plausible
// data. A nil pool leaves p to the garbage collector, untouched.
func (pl *Pool) Put(p *Packet) {
	if pl == nil {
		return
	}
	*p = Packet{}
	pl.returned++
	pl.free = append(pl.free, p)
}

// Counts returns how many packets Get has handed out and Put has taken
// back. Summed over every pool of a simulation, taken − returned is the
// number of packets still held somewhere.
func (pl *Pool) Counts() (taken, returned uint64) { return pl.taken, pl.returned }
