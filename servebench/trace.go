package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// span is one timed call into a layer during the traced replay. Spans
// of one replayed operation share req; parent is the enclosing span's
// id, or -1 for the operation's root.
type span struct {
	id, parent int32
	req        int32
	name       string
	start, end int64 // ns since the replay started
}

// tracer records spans in memory for a single-goroutine replay: the
// open-span stack belongs to the replay loop, so parentage is exact.
// Spans are written out only when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(req int, name string) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, req: int32(req), name: name, start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].end = int64(time.Since(t.t0))
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover.
func (t *tracer) selfTimes() []int64 {
	children := make([][]int32, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.id)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		covered, reach := int64(0), s.start
		kids := children[i]
		slices.SortFunc(kids, func(a, b int32) int { return int(t.spans[a].start - t.spans[b].start) })
		for _, k := range kids {
			c := t.spans[k]
			lo, hi := max(c.start, reach), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// durations returns the durations of every span named name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/float64(time.Millisecond))
		}
	}
	return out
}

// layerOf maps a span name to its layer: the package it times.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// write stores every span, with its self time, as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	self := t.selfTimes()
	type line struct {
		Req     int32  `json:"req"`
		ID      int32  `json:"id"`
		Parent  int32  `json:"parent"`
		Name    string `json:"name"`
		StartUS int64  `json:"start_us"`
		DurUS   int64  `json:"dur_us"`
		SelfUS  int64  `json:"self_us"`
	}
	for i, s := range t.spans {
		if err := enc.Encode(line{s.req, s.id, s.parent, s.name, s.start / 1e3, (s.end - s.start) / 1e3, self[i] / 1e3}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
