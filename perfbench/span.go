package main

import "time"

// span is one host-clock interval the benchmark recorded around a call
// into a layer. Start and End are nanoseconds since the recording
// process started; Parent indexes the enclosing span in the same list
// (-1 for a root); Run identifies the repetition that produced it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so untraced runs pay only the
// nil check.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Run: t.run})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	return time.Duration(t.spans[i].dur())
}

// child records an already-measured interval of length d as a closed
// child of the innermost open span, starting where that span started.
// It stands for many tiny intervals summed with two clock reads each,
// where one span per interval would dominate the trace.
func (t *tracer) child(name string, d time.Duration) {
	if t == nil {
		return
	}
	parent := t.open[len(t.open)-1]
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + d.Nanoseconds(), Parent: parent, Run: t.run})
}

// selfNs is span i's duration minus the time its direct children
// cover.
func selfNs(spans []span, i int) int64 {
	self := spans[i].dur()
	for _, s := range spans {
		if s.Parent == i {
			self -= s.dur()
		}
	}
	return self
}
