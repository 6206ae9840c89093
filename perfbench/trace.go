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

	"maest/internal/obs"
)

// The benchmark's own tracing.  Spans are recorded only in the traced
// run, from this package, around calls into the program's layers; the
// program itself is not instrumented.  They are kept in memory and
// written out as JSON lines when the run ends.

type span struct {
	Trace  string  `json:"trace"`
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the tracer started
	Dur    float64 `json:"dur_us"`
	Self   float64 `json:"self_us"` // Dur minus the part child spans cover
}

// traced is one request of the traced window (an eco-cold chain, a
// floorplan plan), kept for the replay.
type traced struct {
	root  uint64
	trace string
	dur   time.Duration // latency of the request's first client call
	err   error
	op    any // the workload's description of the request
	resp  any // the decoded answer, where one exists
}

type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	reqs  []traced
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// reqTrace is one request being traced: its trace context, which the
// server sees, and its root span, opened now and recorded at end.
type reqTrace struct {
	t     *tracer
	tc    obs.TraceContext
	root  uint64
	start time.Time
	first time.Duration
	calls int
}

// begin opens a request.  A nil tracer answers a plain context and a
// nil request, whose methods do nothing.
func (t *tracer) begin() (context.Context, *reqTrace) {
	if t == nil {
		return context.Background(), nil
	}
	tc := obs.NewTraceContext()
	rt := &reqTrace{t: t, tc: tc, root: t.ids.Add(1), start: time.Now()}
	return obs.WithTraceContext(context.Background(), tc), rt
}

// client records one client call of the request as a child span.
func (rt *reqTrace) client(start time.Time, d time.Duration) {
	if rt == nil {
		return
	}
	if rt.calls == 0 {
		rt.first = d
	}
	rt.calls++
	rt.t.add(rt.tc.TraceIDString(), rt.root, "client", start, d)
}

// end records the request's root span and keeps it for the replay.
func (rt *reqTrace) end(err error, op, resp any) {
	if rt == nil {
		return
	}
	t, trace := rt.t, rt.tc.TraceIDString()
	t.mu.Lock()
	t.spans = append(t.spans, span{Trace: trace, ID: rt.root, Name: "request", Start: us(rt.start.Sub(t.t0)), Dur: us(time.Since(rt.start))})
	t.reqs = append(t.reqs, traced{root: rt.root, trace: trace, dur: rt.first, err: err, op: op, resp: resp})
	t.mu.Unlock()
}

// add records one finished span and returns its id.
func (t *tracer) add(trace string, parent uint64, name string, start time.Time, d time.Duration) uint64 {
	id := t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: us(start.Sub(t.t0)), Dur: us(d)})
	t.mu.Unlock()
	return id
}

// layers accumulates replayed layer calls: one child span per call
// under the replay root of the request, and the call durations by
// layer name.
type layers struct {
	t     *tracer
	trace string
	d     map[string][]float64 // µs per call, by layer
}

func newLayers(t *tracer) *layers {
	return &layers{t: t, d: map[string][]float64{}}
}

// begin opens the replay of one traced request.
func (l *layers) begin(r traced) func() {
	l.trace = r.trace
	start := time.Now()
	children := len(l.t.spans)
	return func() {
		root := l.t.add(r.trace, r.root, "replay", start, time.Since(start))
		for i := children; i < len(l.t.spans)-1; i++ {
			l.t.spans[i].Parent = root
		}
	}
}

// time runs and times one layer call as a child of the replay root,
// answering its duration in µs.
func (l *layers) time(name string, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	l.t.add(l.trace, 0, name, start, d)
	l.d[name] = append(l.d[name], us(d))
	return us(d), err
}

// span runs and times one layer call as a child of the replay root
// without taking a sample: for a call the handler splits in two, whose
// parts are noted as one sample.
func (l *layers) span(name string, fn func()) float64 {
	start := time.Now()
	fn()
	d := time.Since(start)
	l.t.add(l.trace, 0, name, start, d)
	return us(d)
}

// note records a value that is not a span (a size, a count).
func (l *layers) note(name string, v float64) { l.d[name] = append(l.d[name], v) }

func (l *layers) median(name string) float64 {
	if len(l.d[name]) == 0 {
		return 0
	}
	return Median(l.d[name])
}

func (l *layers) mean(name string) float64 { return Mean(l.d[name]) }

// selfTimes fills each span's self time: its duration minus the union
// of its children's intervals clipped to it.
func (t *tracer) selfTimes() {
	kids := map[uint64][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		var iv [][2]float64
		for _, k := range kids[s.ID] {
			c := t.spans[k]
			lo, hi := max(c.Start, s.Start), min(c.Start+c.Dur, s.Start+s.Dur)
			if hi > lo {
				iv = append(iv, [2]float64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := 0.0, s.Start
		for _, v := range iv {
			lo := max(v[0], end)
			if v[1] > lo {
				covered += v[1] - lo
				end = v[1]
			}
		}
		s.Self = s.Dur - covered
	}
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
