package packet

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// setAtInjection names the Packet fields a NIC sets at or after
// injection. A staged record never carries them, so they are the only
// fields a round trip may lose; every other field, including any added
// later, must survive it.
var setAtInjection = map[string]bool{"TTD": true, "Hop": true, "InjectedAt": true, "Corrupted": true}

// TestStagedIsSmallAndPointerFree pins the record at 80 bytes and
// without a pointer, so a NIC backlog of records costs half a backlog of
// packets and the garbage collector never scans it.
func TestStagedIsSmallAndPointerFree(t *testing.T) {
	if s := unsafe.Sizeof(Staged{}); s > 80 {
		t.Fatalf("Staged is %d bytes, want <= 80", s)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v: a staged record must hold no pointer", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("Staged", reflect.TypeOf(Staged{}))
}

// fuzzBytes hands out fuzz input eight bytes at a time, zero past the end.
type fuzzBytes []byte

func (b *fuzzBytes) next() uint64 {
	var w [8]byte
	n := copy(w[:], *b)
	*b = (*b)[n:]
	return binary.LittleEndian.Uint64(w[:])
}

// fillPacket sets every field of a packet from data through reflection,
// so a field added to Packet is set too, and reports whether the record
// can hold the result. It fails the test on a field kind it cannot fill.
func fillPacket(t *testing.T, data []byte) (p Packet, route int, fits bool) {
	in := fuzzBytes(data)
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		u := in.next()
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(u&1 == 1)
		case reflect.Uint8, reflect.Uint32, reflect.Uint64:
			f.SetUint(u) // SetUint truncates to the field's width
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(u))
		case reflect.Slice: // Route
			n := int(u % 9)
			s := reflect.MakeSlice(f.Type(), n, n)
			for j := 0; j < n; j++ {
				s.Index(j).SetInt(int64(in.next() % 64))
			}
			f.Set(s)
		case reflect.Interface: // Ctl
			if u&1 == 1 {
				f.Set(reflect.ValueOf(u >> 1))
			}
		default:
			t.Fatalf("fillPacket cannot fill Packet.%s of kind %v", name, f.Kind())
		}
	}
	route = int(int64(in.next()))
	fits = int64(int32(p.Dst)) == int64(p.Dst) && uint64(p.Size) <= math.MaxUint32 &&
		int64(int32(p.FrameParts)) == int64(p.FrameParts) && uint64(route) <= math.MaxUint32
	return p, route, fits
}

// checkRoundTrip stages the packet data describes and builds it back.
// Every field but those set at injection must survive; a value the record
// cannot hold must panic.
func checkRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	p, route, fits := fillPacket(t, data)
	var s Staged
	if !fits {
		defer func() {
			if recover() == nil {
				t.Fatalf("Stage truncated %+v (route index %d) instead of panicking", p, route)
			}
		}()
		s.Stage(&p, route)
		return
	}
	s.Stage(&p, route)
	if int(s.Route) != route || s.Ctl != (p.Ctl != nil) {
		t.Fatalf("record keeps route %d and ctl %v, want %d and %v", s.Route, s.Ctl, route, p.Ctl != nil)
	}
	var ctl any
	if s.Ctl {
		ctl = p.Ctl
	}
	var q Packet
	s.Build(&q, p.Src, p.Route, ctl)
	pv, qv := reflect.ValueOf(p), reflect.ValueOf(q)
	for i := 0; i < pv.NumField(); i++ {
		name := pv.Type().Field(i).Name
		if setAtInjection[name] {
			continue
		}
		if !reflect.DeepEqual(pv.Field(i).Interface(), qv.Field(i).Interface()) {
			t.Fatalf("Packet.%s: staged %v, built back %v", name, pv.Field(i), qv.Field(i))
		}
	}
}

// TestStagedRoundTrip runs fixed inputs through the round trip: a small
// packet, one at every limit of the record's narrow fields, and one past
// each limit.
func TestStagedRoundTrip(t *testing.T) {
	le := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	// Field order: ID Flow Class VC Corrupted Sampled Src Dst Size Seq
	// Deadline TTD Route(len, ports...) Hop Ctl Eligible Value CreatedAt
	// InjectedAt FrameID FrameParts, then the route index.
	small := le(7, 3, 1, 1, 0, 1, 2, 5, 2048, 9, 1000, 0, 2, 4, 1, 0, 3, 980, 12, 40, 0, 77, 2, 6)
	limits := le(math.MaxUint64, math.MaxUint32, 3, 1, 1, 1, 1<<40, math.MaxInt32, math.MaxUint32,
		math.MaxUint64, math.MaxInt64, 5, 0, 9, 1, 1<<63, math.MaxInt64, 1, 5, math.MaxUint64,
		math.MaxInt32, math.MaxUint32)
	checkRoundTrip(t, small)
	checkRoundTrip(t, limits)
	checkRoundTrip(t, nil)
	for _, c := range []struct {
		name string
		word int // index of the word pushed past the record's limit
		v    uint64
	}{
		{"Dst", 7, math.MaxInt32 + 1},
		{"Size", 8, math.MaxUint32 + 1},
		{"negative Size", 8, math.MaxUint64},
		{"FrameParts", 20, 1 << 31},
		{"route index", 21, math.MaxUint32 + 1},
	} {
		in := append([]byte(nil), limits...)
		binary.LittleEndian.PutUint64(in[8*c.word:], c.v)
		t.Run(c.name, func(t *testing.T) {
			if _, _, fits := fillPacket(t, in); fits {
				t.Fatal("input fits the record; the table is out of step with Packet")
			}
			checkRoundTrip(t, in)
		})
	}
}

// FuzzStagedRoundTrip stages arbitrary packets and builds them back.
func FuzzStagedRoundTrip(f *testing.F) {
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Add(make([]byte, 200))
	f.Fuzz(checkRoundTrip)
}
