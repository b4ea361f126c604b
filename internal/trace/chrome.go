package trace

import (
	"fmt"
	"io"
	"sort"
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

// spanName returns the slice name a span-opening event starts, or "" if
// the kind does not open a span.
func spanName(ev *Event) string {
	switch ev.Kind {
	case KindGenerated:
		return "nic-queue"
	case KindEligibleHold:
		return "eligible-hold"
	case KindInjected, KindLinkTx:
		return "wire"
	case KindVOQEnqueue:
		return fmt.Sprintf("voq sw%d in%d vc%d", ev.Node, ev.Port, ev.VC)
	case KindVOQDequeue:
		return fmt.Sprintf("xbar sw%d", ev.Node)
	case KindOutputEnqueue:
		return fmt.Sprintf("outbuf sw%d p%d", ev.Node, ev.Port)
	}
	return ""
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

// chromeWriter accumulates trace_event JSON with comma management.
type chromeWriter struct {
	w     io.Writer
	buf   []byte
	first bool
	err   error
}

func (cw *chromeWriter) event(body func(dst []byte) []byte) {
	if cw.err != nil {
		return
	}
	cw.buf = cw.buf[:0]
	if cw.first {
		cw.first = false
		cw.buf = append(cw.buf, "\n  "...)
	} else {
		cw.buf = append(cw.buf, ",\n  "...)
	}
	cw.buf = body(cw.buf)
	_, cw.err = cw.w.Write(cw.buf)
}

// WriteChromeTrace exports the recorded events as Chrome trace_event JSON.
// Load the file in Perfetto or chrome://tracing; each sampled packet is a
// named thread under the "packets" process.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return fmt.Errorf("trace: writing chrome trace: %w", err)
	}
	cw := &chromeWriter{w: w, first: true, buf: make([]byte, 0, 512)}

	cw.event(func(dst []byte) []byte {
		return append(dst, `{"ph":"M","pid":1,"name":"process_name","args":{"name":"packets"}}`...)
	})

	// Group the events by packet: each packet's events stably by time,
	// which keeps their causal order at equal times, and the tracks by
	// (first event time, packet id). Neither depends on how the run was
	// split across shards, though a packet's life may span several
	// shard logs.
	byPkt := make(map[uint64][]*Event)
	if t != nil {
		t.cut()
		t.each(func(ev *Event) { byPkt[ev.Pkt] = append(byPkt[ev.Pkt], ev) })
	}
	order := make([]uint64, 0, len(byPkt))
	for id, evs := range byPkt {
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].T < evs[b].T })
		order = append(order, id)
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := byPkt[order[a]][0].T, byPkt[order[b]][0].T
		if ta != tb {
			return ta < tb
		}
		return order[a] < order[b]
	})

	for _, id := range order {
		evs := byPkt[id]
		first := evs[0]
		cw.event(func(dst []byte) []byte {
			dst = append(dst, `{"ph":"M","pid":1,"tid":`...)
			dst = strconv.AppendUint(dst, id, 10)
			dst = append(dst, `,"name":"thread_name","args":{"name":"pkt `...)
			dst = strconv.AppendUint(dst, id, 10)
			dst = append(dst, ' ')
			dst = append(dst, first.Class.String()...)
			dst = append(dst, " f"...)
			dst = strconv.AppendUint(dst, uint64(first.Flow), 10)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(first.Src), 10)
			dst = append(dst, "->"...)
			dst = strconv.AppendInt(dst, int64(first.Dst), 10)
			dst = append(dst, `"}}`...)
			return dst
		})

		// Walk the packet's events, turning consecutive span-opening
		// events into complete ("X") slices and everything notable into
		// instant ("i") markers.
		openName := ""
		var openAt units.Time
		var openEv *Event
		closeSpan := func(until units.Time) {
			if openName == "" {
				return
			}
			name, start, src := openName, openAt, openEv
			openName = ""
			cw.event(func(dst []byte) []byte {
				dst = append(dst, `{"ph":"X","pid":1,"tid":`...)
				dst = strconv.AppendUint(dst, id, 10)
				dst = append(dst, `,"name":"`...)
				dst = append(dst, name...)
				dst = append(dst, `","ts":`...)
				dst = appendTS(dst, start)
				dst = append(dst, `,"dur":`...)
				dst = appendTS(dst, until-start)
				dst = append(dst, ',')
				dst = appendArgs(dst, src)
				dst = append(dst, '}')
				return dst
			})
		}
		for _, ev := range evs {
			if name := spanName(ev); name != "" {
				closeSpan(ev.T)
				openName, openAt, openEv = name, ev.T, ev
				continue
			}
			if terminal(ev.Kind) {
				closeSpan(ev.T)
			}
			cw.event(func(dst []byte) []byte {
				dst = append(dst, `{"ph":"i","s":"t","pid":1,"tid":`...)
				dst = strconv.AppendUint(dst, id, 10)
				dst = append(dst, `,"name":"`...)
				dst = append(dst, ev.Kind.String()...)
				dst = append(dst, `","ts":`...)
				dst = appendTS(dst, ev.T)
				dst = append(dst, ',')
				dst = appendArgs(dst, ev)
				dst = append(dst, '}')
				return dst
			})
		}
		// A span left open (packet still in flight at the horizon) is
		// closed at its own start: zero-duration, but visible.
		closeSpan(openAt)
	}
	if cw.err != nil {
		return fmt.Errorf("trace: writing chrome trace: %w", cw.err)
	}
	if _, err := io.WriteString(w, "\n]}\n"); err != nil {
		return fmt.Errorf("trace: writing chrome trace: %w", err)
	}
	return nil
}
