package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// spanID identifies a recorded span; 0 is "no span" (the root's parent, and
// every id a nil recorder hands out).
type spanID int32

// span is one call into a layer's public function, timed from outside.
type span struct {
	ID     spanID
	Parent spanID
	Layer  string // the module called into: "model", "wave", "tiling", "serve", …
	Name   string
	Op     int // the shot or job the call belongs to, one id per operation
	Start  time.Duration
	End    time.Duration
}

// recorder is the benchmark's own span recorder: spans are kept in memory
// and written as a Chrome trace when the run ends. A nil *recorder records
// nothing, which is how the untraced pass runs the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(parent spanID, layer, name string, op int) spanID {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := spanID(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Op: op, Start: now, End: -1})
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id spanID) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose bounds the caller measured itself, for layers
// that report a completed piece of work through a callback.
func (r *recorder) add(parent spanID, layer, name string, op int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: spanID(len(r.spans) + 1), Parent: parent, Layer: layer, Name: name, Op: op,
		Start: start.Sub(r.t0), End: end.Sub(r.t0),
	})
}

// snapshot returns the closed spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// covered returns how much of [lo, hi) the given intervals cover, counting
// overlapping intervals once.
func covered(lo, hi time.Duration, iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum time.Duration
	at := lo
	for _, x := range iv {
		s, e := max(x[0], at), min(x[1], hi)
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}

// selfTimes returns, per layer, the self time of the spans in the subtree
// of root: each span's duration minus the part of it its child spans cover.
func selfTimes(spans []span, root spanID) map[string]time.Duration {
	children := map[spanID][]span{}
	byID := map[spanID]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
		byID[s.ID] = s
	}
	out := map[string]time.Duration{}
	var walk func(s span)
	walk = func(s span) {
		iv := make([][2]time.Duration, 0, len(children[s.ID]))
		for _, c := range children[s.ID] {
			iv = append(iv, [2]time.Duration{c.Start, c.End})
			walk(c)
		}
		out[s.Layer] += (s.End - s.Start) - covered(s.Start, s.End, iv)
	}
	if r, ok := byID[root]; ok {
		walk(r)
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace JSON (load it in
// chrome://tracing or ui.perfetto.dev). Every event carries its span id,
// its parent's id and the operation id in args. Siblings that overlap in
// time — shots on concurrent lanes, jobs of concurrent clients — are put on
// separate tids so the viewer nests them correctly.
func writeChrome(w io.Writer, workload string, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })

	type lane struct {
		tid  int
		free time.Duration // when the lane's last span of this parent ends
	}
	tidOf := map[spanID]int{}
	lanesOf := map[spanID][]*lane{}
	nextTID := 1
	events := make([]chromeEvent, 0, len(sorted))
	for _, s := range sorted {
		lanes := lanesOf[s.Parent]
		if lanes == nil {
			lanes = []*lane{{tid: tidOf[s.Parent]}}
		}
		var l *lane
		for _, c := range lanes {
			if c.free <= s.Start {
				l = c
				break
			}
		}
		if l == nil {
			l = &lane{tid: nextTID}
			nextTID++
			lanes = append(lanes, l)
		}
		l.free = s.End
		lanesOf[s.Parent] = lanes
		tidOf[s.ID] = l.tid
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: l.tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": workload},
		"traceEvents":     events,
	})
}
