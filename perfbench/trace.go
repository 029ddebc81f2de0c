package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded on the benchmark's side of
// the call. Spans of one request share Req; Parent is the span that made
// the call.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part of it its child spans
	// cover, filled in by finish.
	Self int64 `json:"self_ns"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so an untraced run pays one nil check per call site.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span in progress; the tracer records it at close.
type openSpan struct {
	id, parent, req uint64
	name            string
	start           time.Time
}

func (t *tracer) open(name string, parent, req uint64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{id: t.next.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

func (t *tracer) close(s openSpan) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: s.start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// durations returns the durations, in µs, of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// byID returns the closed spans indexed by ID.
func (t *tracer) byID() map[uint64]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[uint64]span, len(t.spans))
	for _, s := range t.spans {
		m[s.ID] = s
	}
	return m
}

// finish computes every span's self time: its duration minus the union of
// its children's intervals, clipped to its own.
func (t *tracer) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write finishes the spans, writes them as JSON lines to path and prints a
// per-name summary of median duration and median self time.
func (t *tracer) write(path string) error {
	t.finish()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type agg struct{ dur, self []float64 }
	names := map[string]*agg{}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
		a := names[s.Name]
		if a == nil {
			a = &agg{}
			names[s.Name] = a
		}
		a.dur = append(a.dur, float64(s.End-s.Start)/1e3)
		a.self = append(a.self, float64(s.Self)/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("trace: %d spans written to %s\n", len(t.spans), path)
	for _, k := range keys {
		a := names[k]
		fmt.Printf("  span %-28s n=%-6d median %10.1f µs  self %10.1f µs\n", k, len(a.dur), median(a.dur), median(a.self))
	}
	return nil
}
