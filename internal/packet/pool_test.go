package packet

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestPacketFitsItsSizeClass pins the packet in Go's 160-byte size class:
// at full load every staged, buffered and in-flight packet pays it.
func TestPacketFitsItsSizeClass(t *testing.T) {
	if s := unsafe.Sizeof(Packet{}); s > 160 {
		t.Fatalf("Packet is %d bytes, want <= 160 (the next size class is 192)", s)
	}
}

func TestPoolRecyclesZeroedPackets(t *testing.T) {
	var pl Pool[Packet]
	p := pl.Get()
	p.ID, p.Flow, p.Route, p.Ctl, p.Sampled = 7, 3, []int{1, 2}, "msg", true
	pl.Put(p)
	if !reflect.ValueOf(*p).IsZero() {
		t.Fatalf("Put left %v in the packet, want it zeroed", p)
	}
	if q := pl.Get(); q != p {
		t.Fatal("Get allocated although the free list held a packet")
	}
	if fresh := pl.Get(); fresh == p || !reflect.ValueOf(*fresh).IsZero() {
		t.Fatal("Get on an empty free list must allocate a zeroed packet")
	}
	if taken, returned := pl.Counts(); taken != 3 || returned != 1 {
		t.Fatalf("counts taken=%d returned=%d, want 3 and 1", taken, returned)
	}
}

func TestNilPoolAllocates(t *testing.T) {
	var pl *Pool[Packet]
	p := pl.Get()
	p.ID = 9
	pl.Put(p)
	if p.ID != 9 {
		t.Fatal("a nil pool must leave a put packet untouched")
	}
	if pl.Get() == p {
		t.Fatal("a nil pool must allocate every packet")
	}
}
