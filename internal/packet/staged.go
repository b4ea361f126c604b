package packet

import (
	"fmt"
	"math"

	"deadlineqos/internal/units"
)

// Staged is a packet as its source NIC holds it from emit until the link
// takes it (DESIGN.md §5): every stamp emit computed, in 80 bytes without
// a pointer, so a backlog of records costs half what a backlog of packets
// does and the garbage collector never scans it. The fields a record
// cannot hold stay with the staging host: Src is the host itself, the
// route is an index into the host's route table, and a Ctl payload waits
// in a side table keyed by ID. TTD, Hop, InjectedAt and Corrupted are set
// at or after injection, so a record has no use for them.
type Staged struct {
	ID         uint64
	Seq        uint64
	Deadline   units.Time
	Eligible   units.Time
	CreatedAt  units.Time
	FrameID    uint64
	Value      int64
	Flow       FlowID
	Dst        int32
	Size       uint32
	FrameParts int32
	Route      uint32 // index of the route in the staging host's table
	Class      Class
	VC         VC
	Sampled    bool
	Ctl        bool // a Ctl payload waits in the staging host's side table
}

// Stage fills s from p, with route as the index of p.Route in the
// staging host's route table. It panics on a value s cannot hold rather
// than truncate it.
func (s *Staged) Stage(p *Packet, route int) {
	if int(int32(p.Dst)) != p.Dst || uint64(p.Size) > math.MaxUint32 ||
		int(int32(p.FrameParts)) != p.FrameParts || uint64(route) > math.MaxUint32 {
		panic(unstageable(p, route))
	}
	*s = Staged{
		ID:         p.ID,
		Seq:        p.Seq,
		Deadline:   p.Deadline,
		Eligible:   p.Eligible,
		CreatedAt:  p.CreatedAt,
		FrameID:    p.FrameID,
		Value:      p.Value,
		Flow:       p.Flow,
		Dst:        int32(p.Dst),
		Size:       uint32(p.Size),
		FrameParts: int32(p.FrameParts),
		Route:      uint32(route),
		Class:      p.Class,
		VC:         p.VC,
		Sampled:    p.Sampled,
		Ctl:        p.Ctl != nil,
	}
}

// Build fills p from s: the inverse of Stage. src is the staging host,
// route the slice s.Route indexes and ctl the payload waiting for s.ID
// (nil unless s.Ctl). The injection-time fields start at zero.
func (s *Staged) Build(p *Packet, src int, route []int, ctl any) {
	*p = Packet{
		ID:         s.ID,
		Flow:       s.Flow,
		Class:      s.Class,
		VC:         s.VC,
		Sampled:    s.Sampled,
		Src:        src,
		Dst:        int(s.Dst),
		Size:       units.Size(s.Size),
		Seq:        s.Seq,
		Deadline:   s.Deadline,
		Route:      route,
		Ctl:        ctl,
		Eligible:   s.Eligible,
		Value:      s.Value,
		CreatedAt:  s.CreatedAt,
		FrameID:    s.FrameID,
		FrameParts: int(s.FrameParts),
	}
}

// Stamps returns what a queue discipline orders, accounts and sheds the
// record by.
func (s *Staged) Stamps() Stamps {
	return Stamps{Deadline: s.Deadline, Size: units.Size(s.Size), Value: s.Value}
}

// String renders the record like a packet, for traces and panics.
func (s *Staged) String() string {
	return fmt.Sprintf("staged{id=%d flow=%d %s ->%d size=%d dl=%v seq=%d}",
		s.ID, s.Flow, s.Class, s.Dst, s.Size, s.Deadline, s.Seq)
}

// Stamps are the fields a queue discipline reads of what it stores
// (internal/pqueue): the deadline it orders by, the wire size it accounts
// and the value a bounded queue sheds by.
type Stamps struct {
	Deadline units.Time
	Size     units.Size
	Value    int64
}

// Stamps returns what a queue discipline orders, accounts and sheds the
// packet by.
func (p *Packet) Stamps() Stamps {
	return Stamps{Deadline: p.Deadline, Size: p.Size, Value: p.Value}
}

// unstageable names the first field of p, or the route index, that a
// staged record cannot hold.
func unstageable(p *Packet, route int) string {
	field, v := "route index", int64(route)
	switch {
	case int(int32(p.Dst)) != p.Dst:
		field, v = "Dst", int64(p.Dst)
	case uint64(p.Size) > math.MaxUint32:
		field, v = "Size", int64(p.Size)
	case int(int32(p.FrameParts)) != p.FrameParts:
		field, v = "FrameParts", int64(p.FrameParts)
	}
	return fmt.Sprintf("packet: %s %d of %v does not fit a staged record", field, v, p)
}
