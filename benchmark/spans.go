package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around its own call
// into a layer: name, start and end (host ns since the log was opened) and
// the span that was open when it began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 at the root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// SelfNS is the span's duration minus the part its child spans cover;
	// filled in when the log is written.
	SelfNS int64 `json:"self_ns"`
}

// spanLog keeps spans in memory until the run is over. A nil *spanLog records
// nothing, so timed runs pass nil.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// openSpan is the handle begin returns; end closes it.
type openSpan struct {
	log *spanLog
	id  int
}

func (l *spanLog) begin(name string) openSpan {
	if l == nil {
		return openSpan{}
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNS: time.Since(l.t0).Nanoseconds()})
	l.open = append(l.open, id)
	return openSpan{log: l, id: id}
}

func (s openSpan) end() {
	l := s.log
	if l == nil {
		return
	}
	l.spans[s.id].EndNS = time.Since(l.t0).Nanoseconds()
	// Spans nest, so the one being closed is on top of the stack.
	l.open = l.open[:len(l.open)-1]
}

// fillSelf sets every span's self time.
func (l *spanLog) fillSelf() {
	for i := range l.spans {
		l.spans[i].SelfNS = l.spans[i].EndNS - l.spans[i].StartNS
	}
	for _, s := range l.spans {
		if s.Parent >= 0 {
			l.spans[s.Parent].SelfNS -= s.EndNS - s.StartNS
		}
	}
}

func (l *spanLog) write(path string) error {
	l.fillSelf()
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
