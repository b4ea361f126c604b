package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"

	"deadlineqos/internal/units"
)

// Chrome trace_event export: each sampled packet becomes one "thread" in a
// single "packets" process, so Perfetto (ui.perfetto.dev) renders the
// packet's life as a track of back-to-back spans — NIC queue, eligible
// hold, wire, per-switch VOQ residency, crossbar, output buffer — with
// instant markers for take-overs, order errors, drops and retransmits.
// Timestamps are microseconds (the format's unit) with nanosecond
// precision preserved in the fractional part.

// appendSpan appends the complete ("X") slice the span-opening event open
// starts and the packet's next span or terminal event ends at until.
func appendSpan(dst []byte, open *Event, until units.Time) []byte {
	dst = append(dst, ",\n  "+`{"ph":"X","pid":1,"tid":`...)
	dst = strconv.AppendUint(dst, open.Pkt, 10)
	dst = append(dst, `,"name":"`...)
	switch open.Kind {
	case KindGenerated:
		dst = append(dst, "nic-queue"...)
	case KindEligibleHold:
		dst = append(dst, "eligible-hold"...)
	case KindInjected, KindLinkTx:
		dst = append(dst, "wire"...)
	case KindVOQEnqueue:
		dst = append(dst, "voq sw"...)
		dst = strconv.AppendInt(dst, int64(open.Node), 10)
		dst = append(dst, " in"...)
		dst = strconv.AppendInt(dst, int64(open.Port), 10)
		dst = append(dst, " vc"...)
		dst = strconv.AppendUint(dst, uint64(open.VC), 10)
	case KindVOQDequeue:
		dst = append(dst, "xbar sw"...)
		dst = strconv.AppendInt(dst, int64(open.Node), 10)
	case KindOutputEnqueue:
		dst = append(dst, "outbuf sw"...)
		dst = strconv.AppendInt(dst, int64(open.Node), 10)
		dst = append(dst, " p"...)
		dst = strconv.AppendInt(dst, int64(open.Port), 10)
	}
	dst = append(dst, `","ts":`...)
	dst = appendTS(dst, open.T)
	dst = append(dst, `,"dur":`...)
	dst = appendTS(dst, until-open.T)
	dst = append(dst, ',')
	dst = appendArgs(dst, open)
	return append(dst, '}')
}

// terminal reports whether the kind ends the packet's current span chain.
func terminal(k Kind) bool {
	switch k {
	case KindDelivered, KindCRCDrop, KindLinkDrop, KindSwitchDrop, KindDupDrop, KindNICEvict:
		return true
	}
	return false
}

// appendTS renders a nanosecond time as microseconds with fixed 3-decimal
// precision, keeping output byte-stable across runs.
func appendTS(dst []byte, t units.Time) []byte {
	us := t / 1000
	ns := t % 1000
	dst = strconv.AppendInt(dst, int64(us), 10)
	dst = append(dst, '.')
	if ns < 100 {
		dst = append(dst, '0')
	}
	if ns < 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(ns), 10)
}

func appendArgs(dst []byte, ev *Event) []byte {
	dst = append(dst, `"args":{"class":"`...)
	dst = append(dst, ev.Class.String()...)
	dst = append(dst, `","vc":`...)
	dst = strconv.AppendUint(dst, uint64(ev.VC), 10)
	dst = append(dst, `,"hop":`...)
	dst = strconv.AppendInt(dst, int64(ev.Hop), 10)
	dst = append(dst, `,"slack_ns":`...)
	dst = strconv.AppendInt(dst, int64(ev.Slack), 10)
	dst = append(dst, `,"size":`...)
	dst = strconv.AppendInt(dst, int64(ev.Size), 10)
	dst = append(dst, '}')
	return dst
}

// WriteChromeTrace exports the recorded events as Chrome trace_event JSON.
// Load the file in Perfetto or chrome://tracing; each sampled packet is a
// named thread under the "packets" process.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	// Group the events by packet with one stable sort by (packet, time),
	// which keeps a packet's causal order at equal times, and order the
	// tracks by (first event time, packet id). Neither depends on how the
	// run was split across shards, though a packet's life may span
	// several shard logs.
	var evs []*Event
	if t != nil {
		t.cut()
		evs = make([]*Event, 0, t.stored())
		t.each(func(ev *Event) { evs = append(evs, ev) })
	}
	slices.SortStableFunc(evs, func(a, b *Event) int {
		return cmp.Or(cmp.Compare(a.Pkt, b.Pkt), cmp.Compare(a.T, b.T))
	})
	newTrack := func(i int) bool { return i == 0 || evs[i].Pkt != evs[i-1].Pkt }
	n := 0
	for i := range evs {
		if newTrack(i) {
			n++
		}
	}
	tracks := make([]int, 0, n) // the index of each packet's first event
	for i := range evs {
		if newTrack(i) {
			tracks = append(tracks, i)
		}
	}
	slices.SortFunc(tracks, func(a, b int) int {
		return cmp.Or(cmp.Compare(evs[a].T, evs[b].T), cmp.Compare(evs[a].Pkt, evs[b].Pkt))
	})

	buf := append(make([]byte, 0, 64<<10), `{"displayTimeUnit":"ns","traceEvents":[`+
		"\n  "+`{"ph":"M","pid":1,"name":"process_name","args":{"name":"packets"}}`...)
	var err error
	flush := func() {
		if err == nil {
			_, err = w.Write(buf)
		}
		buf = buf[:0]
	}
	for _, start := range tracks {
		first := evs[start]
		buf = append(buf, ",\n  "+`{"ph":"M","pid":1,"tid":`...)
		buf = strconv.AppendUint(buf, first.Pkt, 10)
		buf = append(buf, `,"name":"thread_name","args":{"name":"pkt `...)
		buf = strconv.AppendUint(buf, first.Pkt, 10)
		buf = append(buf, ' ')
		buf = append(buf, first.Class.String()...)
		buf = append(buf, " f"...)
		buf = strconv.AppendUint(buf, uint64(first.Flow), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(first.Src), 10)
		buf = append(buf, "->"...)
		buf = strconv.AppendInt(buf, int64(first.Dst), 10)
		buf = append(buf, `"}}`...)

		// Walk the packet's events, turning consecutive span-opening
		// events (the kinds up to KindLinkTx) into complete slices and
		// everything else into instant ("i") markers.
		var open *Event
		for _, ev := range evs[start:] {
			if ev.Pkt != first.Pkt {
				break
			}
			opens := ev.Kind <= KindLinkTx
			if open != nil && (opens || terminal(ev.Kind)) {
				buf = appendSpan(buf, open, ev.T)
				open = nil
			}
			if opens {
				open = ev
				continue
			}
			buf = append(buf, ",\n  "+`{"ph":"i","s":"t","pid":1,"tid":`...)
			buf = strconv.AppendUint(buf, ev.Pkt, 10)
			buf = append(buf, `,"name":"`...)
			buf = append(buf, ev.Kind.String()...)
			buf = append(buf, `","ts":`...)
			buf = appendTS(buf, ev.T)
			buf = append(buf, ',')
			buf = appendArgs(buf, ev)
			buf = append(buf, '}')
		}
		// A span left open (packet still in flight at the horizon) is
		// closed at its own start: zero-duration, but visible.
		if open != nil {
			buf = appendSpan(buf, open, open.T)
		}
		if len(buf) >= 32<<10 {
			flush()
		}
	}
	buf = append(buf, "\n]}\n"...)
	flush()
	if err != nil {
		return fmt.Errorf("trace: writing chrome trace: %w", err)
	}
	return nil
}
