package hostif

import "deadlineqos/internal/packet"

// The record phase (DESIGN.md §5): the NIC owns a staged record from emit
// until the link takes it or a bounded queue evicts it, and a packet
// exists only from injection on. What a record cannot hold stays in two
// per-host side tables: the route, in a slot the record keeps the index
// of, and a Ctl payload, keyed by packet id. Both are captured when the
// record is staged, so a flow rerouted or downgraded while its packets
// wait never changes them.

// record stages the stamped packet p of flow f: it takes a record from
// the free list, stores p's route and Ctl payload in the side tables, and
// returns the record for a queue.
func (h *Host) record(p *packet.Packet, f *Flow) *packet.Staged {
	r := h.cfg.Records.Get()
	r.Stage(p, int(h.routes.hold(p.Route, &f.slot)))
	if p.Ctl != nil {
		if h.ctl == nil {
			h.ctl = make(map[uint64]any)
		}
		h.ctl[p.ID] = p.Ctl
	}
	return r
}

// unstage builds the packet r stands for into p, releases r's entries in
// the side tables and frees r: the end of the record's life.
func (h *Host) unstage(r *packet.Staged, p *packet.Packet) {
	var ctl any
	if r.Ctl {
		ctl = h.ctl[r.ID]
		delete(h.ctl, r.ID)
	}
	r.Build(p, h.cfg.ID, h.routes.release(r.Route), ctl)
	h.cfg.Records.Put(r)
}

// routeTable holds the routes of a host's staged records. A slot lives
// while a record refers to it; records of one flow staged under the same
// route share its slot.
type routeTable struct {
	slots []routeSlot
	free  []uint32 // indices of empty slots
}

type routeSlot struct {
	route []int
	refs  int
}

// hold returns a slot holding route with one more reference. *hint is the
// slot the caller last held a route in: it is reused when it still holds
// this very slice, and set to the slot returned.
func (t *routeTable) hold(route []int, hint *uint32) uint32 {
	if i := *hint; int(i) < len(t.slots) {
		if s := &t.slots[i]; s.refs > 0 && sameSlice(s.route, route) {
			s.refs++
			return i
		}
	}
	var i uint32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		i = uint32(len(t.slots))
		t.slots = append(t.slots, routeSlot{})
	}
	t.slots[i] = routeSlot{route: route, refs: 1}
	*hint = i
	return i
}

// release drops one reference to slot i and returns its route. The last
// reference empties the slot.
func (t *routeTable) release(i uint32) []int {
	s := &t.slots[i]
	route := s.route
	if s.refs--; s.refs == 0 {
		*s = routeSlot{}
		t.free = append(t.free, i)
	}
	return route
}

// sameSlice reports whether a and b are the same slice: a route is
// replaced, never edited in place, so the same backing array and length
// mean the same route.
func sameSlice(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
