package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval in
// nanoseconds since the run began, the index of the span that caused
// it (-1 for a root) and the identifier shared by the spans of one
// trial or request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int64  `json:"id"`
}

// tracer keeps the spans of a traced run in memory. A nil *tracer is
// the untraced run: every method is a no-op, so the measured path
// carries no tracing cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, id int64) int {
	if t == nil {
		return -1
	}
	start := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTime is the self time of every span of one name.
type layerTime struct {
	calls int
	self  time.Duration
}

// meanMs is the mean self time of one call, in milliseconds.
func (l layerTime) meanMs() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.self) / float64(l.calls) / float64(time.Millisecond)
}

// selfTimes folds the spans into per-name self time: each span's
// duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.calls++
		lt.self += time.Duration(s.End-s.Start) - covered(t.spans, children[i])
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of the union of the given spans'
// intervals.
func covered(spans []span, idx []int) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, len(idx))
	for k, i := range idx {
		iv[k] = [2]int64{spans[i].Start, spans[i].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, v := range iv[1:] {
		if v[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = v
			continue
		}
		if v[1] > cur[1] {
			cur[1] = v[1]
		}
	}
	total += cur[1] - cur[0]
	return time.Duration(total)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
