package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call the benchmark made into a layer of the
// program: its name, its interval, the span that caused it, and the op it
// belongs to. Spans are recorded only from the benchmark's own files.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run measures.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	marks []mark
}

// A mark is a count recorded at a span boundary, such as the bytes a call
// produced.
type mark struct {
	Name  string  `json:"name"`
	Op    int     `json:"op"`
	Value float64 `json:"value"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: now, End: -1})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, op int, fn func()) {
	id := t.start(name, parent, op)
	defer t.end(id)
	fn()
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// note records a count for op.
func (t *tracer) note(name string, op int, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.marks = append(t.marks, mark{name, op, v})
	t.mu.Unlock()
}

// notes returns every count recorded under name.
func (t *tracer) notes(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, m := range t.marks {
		if m.Name == name {
			out = append(out, m.Value)
		}
	}
	return out
}

// writeSpans stores each tracer's spans and counts under its key as one
// JSON object at path.
func writeSpans(path string, tracers map[string]*tracer) error {
	type dump struct {
		Spans []span `json:"spans"`
		Marks []mark `json:"marks"`
	}
	out := map[string]dump{}
	for k, t := range tracers {
		t.mu.Lock()
		marks := append([]mark(nil), t.marks...)
		t.mu.Unlock()
		out[k] = dump{Spans: t.snapshot(), Marks: marks}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children that overlap each other
// (concurrent calls) are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of children
// covers.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return time.Duration(total)
}

// perOpSelfMS sums the self time of the spans named name within each op
// and returns one value per op that has such a span, in milliseconds.
func perOpSelfMS(spans []span, self map[int]time.Duration, name string) []float64 {
	sum := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			sum[s.Op] += self[s.ID]
		}
	}
	out := make([]float64, 0, len(sum))
	for _, d := range sum {
		out = append(out, ms(d))
	}
	return out
}

// durationsMS returns the duration of every span named name, in
// milliseconds.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// ratioPerOp returns, for each op with one span named num and one named
// den, the first's duration over the second's.
func ratioPerOp(spans []span, num, den string) []float64 {
	n, d := map[int]time.Duration{}, map[int]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case num:
			n[s.Op] += s.dur()
		case den:
			d[s.Op] += s.dur()
		}
	}
	var out []float64
	for op, x := range n {
		if y, ok := d[op]; ok && y > 0 {
			out = append(out, float64(x)/float64(y))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
