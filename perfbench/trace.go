package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a public call into the program. Spans stay in
// memory and are written out when the run ends.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root span
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // since the tracer started
	EndMS   float64 `json:"end_ms"`
	// Cells is the work the span did, when it aligned anything.
	Cells int64 `json:"cells,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartMS: ms(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id, crediting it with cells of work.
func (t *tracer) end(id int, cells int64) {
	t.spans[id-1].EndMS = ms(time.Since(t.t0))
	t.spans[id-1].Cells = cells
}

// add records a span with explicit bounds and returns its ID.
func (t *tracer) add(parent int, name string, start, end time.Time, cells int64) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartMS: ms(start.Sub(t.t0)), EndMS: ms(end.Sub(t.t0)), Cells: cells})
	return len(t.spans)
}

// duration is a span's length in milliseconds.
func (t *tracer) duration(id int) float64 { return t.spans[id-1].EndMS - t.spans[id-1].StartMS }

// selfTime is a span's duration minus the part its direct children
// cover. Children of one parent here never overlap (the benchmark
// calls into the program from one goroutine), so their durations add.
func (t *tracer) selfTime(id int) float64 {
	self := t.duration(id)
	for _, c := range t.spans {
		if c.Parent == id {
			self -= c.EndMS - c.StartMS
		}
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
