package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the tracer's memory: spans past the cap are counted
// in dropped and not kept, and a run that dropped any fails its checks.
const maxSpans = 1 << 18

// span is one timed call into a layer, made from the benchmark's own
// code. Times are offsets from the tracer's origin.
type span struct {
	name       string
	start, end time.Duration
	parent     int // index of the enclosing span, -1 for a root
	run        int // measurement round (or service phase) the span belongs to
}

// tracer records spans in memory and writes them out at exit. A nil
// *tracer is the untraced mode: every method is a no-op, so the measured
// code is identical with tracing on and off apart from these calls.
type tracer struct {
	origin  time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, run: run})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (an upload
// timed by its own goroutine, a wait between two observed events).
func (t *tracer) add(name string, start, end time.Time, parent, run int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.origin), end: end.Sub(t.origin), parent: parent, run: run})
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children. Children of one parent may
// overlap (concurrent uploads), so coverage is the union of their
// intervals, not their sum.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for i, s := range t.spans {
		if s.end < s.start {
			continue // never closed: an aborted call, counted nowhere
		}
		out[s.name] += s.end - s.start - t.covered(children[i], s.start, s.end)
	}
	return out
}

// covered returns the length of the union of the child spans' intervals,
// clipped to [lo, hi].
func (t *tracer) covered(kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		s := t.spans[k]
		if s.end < s.start {
			continue
		}
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// write dumps every span as tab-separated lines: id, parent, run, name,
// start and end in nanoseconds from the tracer's origin.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\trun\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.run, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
