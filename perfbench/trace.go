package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpq"
	"mpq/internal/core"
)

// noSpan marks a span without a parent (a root) or a call made while
// tracing is off.
const noSpan int32 = -1

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent links a span to the call that caused it.
type span struct {
	Name   string
	K      int // DP cardinality level for "dp.level" spans, 0 otherwise
	Start  time.Duration
	End    time.Duration
	Parent int32
	Req    int32
	// Srv is the daemon's request ID (from core.RequestMeta) on the
	// span directly below the daemon, or the ID the HTTP front returned
	// on a client span; the two are joined after the run.
	Srv string
	// Enq is when the daemon admitted the request (HasEnq reports
	// whether the span saw it).
	Enq    time.Duration
	HasEnq bool
	// ans is the answer the wrapped engine returned (decorator spans).
	ans *mpq.Answer
}

// tracer keeps spans in memory; they are written out when the run ends.
// While on is false the decorators pass calls straight through.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int32) int32 {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// update applies fn to span id under the lock.
func (t *tracer) update(id int32, fn func(*span)) {
	t.mu.Lock()
	fn(&t.spans[id])
	t.mu.Unlock()
}

// reset drops every recorded span.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type parentKey struct{}

func withParent(ctx context.Context, id int32) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

func parentOf(ctx context.Context) int32 {
	if id, ok := ctx.Value(parentKey{}).(int32); ok {
		return id
	}
	return noSpan
}

// layer is the benchmark's mpq.Engine decorator: placed between the
// daemon, the cache and the inner engine, it records one span per call
// and keeps the answer the layer below returned.
type layer struct {
	name  string
	inner mpq.Engine
	tr    *tracer
}

func (l *layer) Optimize(ctx context.Context, q *mpq.Query, spec mpq.JobSpec) (*mpq.Answer, error) {
	if !l.tr.on.Load() {
		return l.inner.Optimize(ctx, q, spec)
	}
	parent := parentOf(ctx)
	id := l.tr.begin(l.name, parent, noSpan)
	if parent == noSpan {
		if meta, ok := core.RequestMetaFrom(ctx); ok {
			enq := meta.EnqueuedAt.Sub(l.tr.t0)
			l.tr.update(id, func(s *span) { s.Srv, s.Enq, s.HasEnq = meta.ID, enq, true })
		}
	}
	ans, err := l.inner.Optimize(withParent(ctx, id), q, spec)
	l.tr.end(id)
	if err == nil {
		l.tr.update(id, func(s *span) { s.ans = ans })
	}
	return ans, err
}

func (l *layer) OptimizeBatch(ctx context.Context, jobs []mpq.Job) ([]*mpq.Answer, error) {
	return l.inner.OptimizeBatch(ctx, jobs)
}

// link gives every parentless span that is not itself a request root
// its request: by the daemon's request ID where the client learned it
// (HTTP), otherwise by the single request span whose interval contains
// it (the one closed-loop wire client has one request in flight).
func link(spans []span, root string) {
	bySrv := map[string]int32{}
	var roots []int32
	for i, s := range spans {
		if s.Name == root {
			roots = append(roots, int32(i))
			if s.Srv != "" {
				bySrv[s.Srv] = int32(i)
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != noSpan || s.Name == root {
			continue
		}
		if p, ok := bySrv[s.Srv]; ok && s.Srv != "" {
			s.Parent = p
			continue
		}
		found := noSpan
		for _, r := range roots {
			if spans[r].Start <= s.Start && s.End <= spans[r].End {
				if found != noSpan {
					found = noSpan
					break
				}
				found = r
			}
		}
		s.Parent = found
	}
	// Requests propagate from each span to its descendants; spans are
	// appended after their parents, so one forward pass suffices.
	for i := range spans {
		if p := spans[i].Parent; p != noSpan {
			spans[i].Req = spans[p].Req
		}
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int32][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		iv := children[int32(i)]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered := time.Duration(0)
		cur := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// writeSpans writes the spans as JSON Lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := struct {
			ID      int32  `json:"id"`
			Name    string `json:"name"`
			K       int    `json:"k,omitempty"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Parent  int32  `json:"parent"`
			Req     int32  `json:"req"`
		}{int32(i), s.Name, s.K, int64(s.Start), int64(s.End), s.Parent, s.Req}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
