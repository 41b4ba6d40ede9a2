package main

// trace.go records spans at the layer boundaries the benchmark can see from
// outside: the workload, its own input generation and partitioning calls,
// and per machine the boot, each serving phase, each ExecuteBatch, each
// recovery and each checker state probe; explore.Run is one span. Spans
// stay in memory and are written out once, after the run. A nil *tracer is
// the untraced run: every method is a no-op.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval. Host times are nanoseconds since the
// tracer's origin (absent on batch spans, which are virtual only); virtual
// times are the calling simulated thread's clock, where one was at hand.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns,omitempty"`
	End    int64  `json:"end_ns,omitempty"`
	VStart uint64 `json:"vstart_ns,omitempty"`
	VEnd   uint64 `json:"vend_ns,omitempty"`
	Tid    int    `json:"tid,omitempty"`
	Size   int    `json:"size,omitempty"`
}

func (s span) host() bool { return s.End > 0 }

type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (tr *tracer) since(t time.Time) int64 { return t.Sub(tr.origin).Nanoseconds() + 1 }

// begin opens a span now and returns its id (0 when untraced).
func (tr *tracer) begin(name string, parent int64) int64 {
	if tr == nil {
		return 0
	}
	s := span{ID: tr.ids.Add(1), Parent: parent, Name: name, Start: tr.since(time.Now())}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return s.ID
}

// end closes span id now.
func (tr *tracer) end(id int64) {
	if tr == nil {
		return
	}
	now := tr.since(time.Now())
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := len(tr.spans) - 1; i >= 0; i-- {
		if tr.spans[i].ID == id {
			tr.spans[i].End = now
			return
		}
	}
}

// add records a span built elsewhere (a machine's local spans).
func (tr *tracer) add(ss []span) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, ss...)
	tr.mu.Unlock()
}

// localSpans is one machine's span buffer: a machine runs one simulated
// thread at a time, so its hot-path spans (batches, probes) need no lock.
type localSpans struct {
	tr    *tracer
	spans []span
}

func (l *localSpans) begin(name string, parent int64) int {
	if l.tr == nil {
		return -1
	}
	l.spans = append(l.spans, span{ID: l.tr.ids.Add(1), Parent: parent, Name: name,
		Start: l.tr.since(time.Now())})
	return len(l.spans) - 1
}

func (l *localSpans) end(i int, v0, v1 uint64) {
	if i < 0 {
		return
	}
	s := &l.spans[i]
	s.End, s.VStart, s.VEnd = l.tr.since(time.Now()), v0, v1
}

// extend stretches span i to now and widens its virtual extent.
func (l *localSpans) extend(i int, v0, v1 uint64) {
	s := &l.spans[i]
	s.End = l.tr.since(time.Now())
	if s.VEnd == 0 || v0 < s.VStart {
		s.VStart = v0
	}
	if v1 > s.VEnd {
		s.VEnd = v1
	}
}

func (l *localSpans) batch(parent int64, tid, size int, v0, v1 uint64) {
	l.spans = append(l.spans, span{ID: l.tr.ids.Add(1), Parent: parent, Name: "batch",
		VStart: v0, VEnd: v1, Tid: tid, Size: size})
}

// busy returns each span name's host self time: its duration minus the
// part of it that its children's host intervals cover.
func (tr *tracer) busy() map[string]time.Duration {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	kids := map[int64][]hostSpan{}
	for _, s := range tr.spans {
		if s.host() {
			kids[s.Parent] = append(kids[s.Parent], hostSpan{
				start: tr.origin.Add(time.Duration(s.Start)), end: tr.origin.Add(time.Duration(s.End))})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range tr.spans {
		if !s.host() {
			continue
		}
		self := time.Duration(s.End-s.Start) - unionLen(clip(kids[s.ID],
			tr.origin.Add(time.Duration(s.Start)), tr.origin.Add(time.Duration(s.End))))
		out[s.Name] += self
	}
	return out
}

// clip cuts intervals to [lo, hi].
func clip(spans []hostSpan, lo, hi time.Time) []hostSpan {
	out := make([]hostSpan, 0, len(spans))
	for _, s := range spans {
		if s.start.Before(lo) {
			s.start = lo
		}
		if s.end.After(hi) {
			s.end = hi
		}
		if s.end.After(s.start) {
			out = append(out, s)
		}
	}
	return out
}

// write dumps the spans, sorted by id, one JSON object per line.
func (tr *tracer) write(path string) error {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sort.Slice(tr.spans, func(i, j int) bool { return tr.spans[i].ID < tr.spans[j].ID })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
