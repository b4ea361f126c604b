package bench

import (
	"flag"
	"testing"

	"deadlineqos/internal/arch"
	"deadlineqos/internal/hostif"
	"deadlineqos/internal/link"
	"deadlineqos/internal/packet"
	"deadlineqos/internal/pqueue"
	"deadlineqos/internal/sim"
	"deadlineqos/internal/switchsim"
	"deadlineqos/internal/units"
	"deadlineqos/internal/xrand"
)

// microBenchTime keeps the traced run's microbenchmarks to a few seconds
// in total.
const microBenchTime = "200ms"

// micro is one layer microbenchmark: the metric names its ns/op and,
// when allocs is set, its allocs/op are reported under.
type micro struct {
	ns, allocs string
	fn         func(b *testing.B)
}

var micros = []micro{
	{"sim.schedule_pop_ns.4k", "sim.schedule_pop_allocs", schedulePop(4 << 10)},
	{"sim.schedule_pop_ns.32k", "", schedulePop(32 << 10)},
	{"switchsim.forward_ns", "switchsim.forward_allocs", switchForward},
	{"pqueue.takeover_ns", "", bufferPushPop(pqueue.TakeOver)},
	{"pqueue.fifo_ns", "", bufferPushPop(pqueue.FIFO)},
	{"pqueue.heap_ns", "", bufferPushPop(pqueue.Heap)},
	{"link.send_ns", "link.send_allocs", linkSend},
	{"hostif.submit_ns", "hostif.submit_allocs", hostSubmit},
}

// RunMicro runs every layer microbenchmark through testing.Benchmark and
// returns their metrics, recording one span per benchmark when spans is
// non-nil.
func RunMicro(spans *SpanLog, run string, parent int) map[string]float64 {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchTime); err != nil {
		panic(err) // the flag is registered by testing.Init
	}
	out := map[string]float64{}
	for _, m := range micros {
		end := func() {}
		if spans != nil {
			_, end = spans.Start(m.ns, run, parent)
		}
		res := testing.Benchmark(m.fn)
		end()
		out[m.ns] = float64(res.T.Nanoseconds()) / float64(res.N)
		if m.allocs != "" {
			out[m.allocs] = float64(res.MemAllocs) / float64(res.N)
		}
	}
	return out
}

// schedulePop times one Engine.After plus its pop at a standing pending
// set of the given size, the heap depths measured on the clos16 and
// paper128 workloads.
func schedulePop(pending int) func(b *testing.B) {
	return func(b *testing.B) {
		eng := sim.New()
		for i := 0; i < pending; i++ {
			eng.At(units.Time(1e12)+units.Time(i), func() {})
		}
		n := 0
		var step func()
		step = func() {
			if n < b.N {
				n++
				eng.After(3, step)
			}
		}
		b.ResetTimer()
		eng.At(0, step)
		eng.Run(units.Time(1e11))
	}
}

// creditSink is an endpoint that drains at line rate and returns credits
// to its upstream link.
type creditSink struct {
	eng *sim.Engine
	up  *link.Link
}

func (s *creditSink) Receive(p *packet.Packet) {
	p.UnpackTTD(s.eng.Now())
	s.up.ReturnCredits(p.VC, p.Size)
}

type noCredits struct{}

func (noCredits) ReturnCredits(packet.VC, units.Size) {}

// switchForward times one MTU packet through a standalone radix-8
// Advanced switch: input VOQ, crossbar, output buffer, downstream link
// and credit return.
func switchForward(b *testing.B) {
	const radix = 8
	eng := sim.New()
	sw := switchsim.New(switchsim.Config{
		Eng: eng, Clock: packet.Clock{Base: eng.Now}, Radix: radix,
		Arch: arch.Advanced2VC, BufPerVC: 8 * units.Kilobyte,
	})
	for p := 0; p < radix; p++ {
		sw.ConnectUpstream(p, noCredits{})
		sink := &creditSink{eng: eng}
		sink.up = link.New(eng, 1, 20, 8*units.Kilobyte, sink)
		sw.ConnectDownstream(p, sink.up)
	}
	in := sw.InputReceiver(0)
	p := &packet.Packet{Class: packet.Control, VC: packet.VCRegulated, Size: 2 * units.Kilobyte, Route: []int{3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ID, p.Hop, p.Deadline = uint64(i+1), 0, eng.Now()+units.Millisecond
		p.PackTTD(eng.Now())
		in.Receive(p)
		eng.Drain()
	}
}

// bufferPushPop times push+pop through one buffer discipline at a
// standing depth of 32 packets with mostly increasing deadlines.
func bufferPushPop(d pqueue.Discipline) func(b *testing.B) {
	return func(b *testing.B) {
		rng := xrand.New(1)
		buf := pqueue.New(d, 1<<40, false)
		pkts := make([]*packet.Packet, 64)
		dl := units.Time(0)
		for i := range pkts {
			dl += units.Time(rng.UniformInt(-5, 40))
			pkts[i] = &packet.Packet{Deadline: dl, Size: 64}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pkts[i%len(pkts)]
			p.ID = uint64(i + 1) // take-over queues key packets by id
			buf.Push(p)
			if buf.Len() >= 32 {
				buf.Pop()
			}
		}
	}
}

// linkSend times Send through serialisation, arrival and the credit
// return to the sender.
func linkSend(b *testing.B) {
	eng := sim.New()
	sink := &creditSink{eng: eng}
	l := link.New(eng, 1, 20, 8*units.Kilobyte, sink)
	sink.up = l
	p := &packet.Packet{Class: packet.Control, VC: packet.VCRegulated, Size: 2 * units.Kilobyte}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ID = uint64(i + 1)
		p.PackTTD(eng.Now())
		l.Send(p)
		eng.Drain()
	}
}

// hostSubmit times SubmitMessage of one MTU payload on a Control flow:
// segmentation, deadline stamping, staging and injection onto the link.
func hostSubmit(b *testing.B) {
	eng := sim.New()
	mtu := 2 * units.Kilobyte
	h := hostif.New(hostif.Config{
		Eng: eng, Clock: packet.Clock{Base: eng.Now}, Arch: arch.Advanced2VC,
		MTU: mtu, IDs: hostif.NewIDSource(0),
	})
	sink := &creditSink{eng: eng}
	sink.up = link.New(eng, 1, 20, 8*units.Kilobyte, sink)
	h.ConnectOut(sink.up)
	h.AddFlow(&hostif.Flow{ID: 1, Class: packet.Control, Src: 0, Dst: 1, Route: []int{0}, Mode: hostif.ByBandwidth, BW: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SubmitMessage(1, mtu-packet.HeaderSize)
		eng.Drain()
	}
}
