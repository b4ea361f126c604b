package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// Span is one interval of the benchmark's own work, recorded around the
// calls it makes into the simulator's layers. Start and End are Unix
// nanoseconds, so spans recorded in a child process line up with the
// parent's. Parent is the ID of the enclosing span (0 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// SpanLog keeps spans in memory until WriteJSONL.
type SpanLog struct {
	spans []Span
}

// Start opens a span and returns a function that closes it and returns
// its ID.
func (l *SpanLog) Start(name, run string, parent int) (id int, end func()) {
	l.spans = append(l.spans, Span{ID: len(l.spans) + 1, Parent: parent, Name: name, Run: run, Start: time.Now().UnixNano()})
	id = len(l.spans)
	return id, func() { l.spans[id-1].End = time.Now().UnixNano() }
}

// Adopt records spans a child process measured, under parent.
func (l *SpanLog) Adopt(spans []Span, run string, parent int) {
	for _, s := range spans {
		s.ID, s.Parent, s.Run = len(l.spans)+1, parent, run
		l.spans = append(l.spans, s)
	}
}

// WriteJSONL writes one span per line to path.
func (l *SpanLog) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
