package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/decider"
	"repro/internal/discern"
	"repro/internal/graphstore"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/spec"
)

// epoch is the zero of every span timestamp.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry points or rebuilt from the events the layer
// publishes. Spans of one request share req.
type span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent,omitempty"`
	Req    string            `json:"req,omitempty"`
	Round  int               `json:"round"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	nodes  int64             // graph nodes the call touched
	extra  [2]int64          // shard scanned, chunks
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layerOf maps a span name to the layer it measures.
func layerOf(name string) string {
	prefix, _, _ := strings.Cut(name, ".")
	switch prefix {
	case "client":
		return "serve"
	case "graphcache":
		return "graph"
	}
	return prefix
}

// tracer keeps one round's spans in memory. All methods are safe for
// concurrent use.
type tracer struct {
	round int
	mu    sync.Mutex
	spans []*span
}

// spanIDs numbers spans uniquely across the rounds of a run.
var spanIDs atomic.Int64

func (t *tracer) add(s *span) *span {
	s.ID = spanIDs.Add(1)
	s.Round = t.round
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// snapshot returns the spans recorded so far. A graph spill still in
// flight after the round may add more; they are not reported.
func (t *tracer) snapshot() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*span(nil), t.spans...)
}

// timed records fn as a span named name.
func (t *tracer) timed(name string, fn func() error) error {
	start := now()
	err := fn()
	if t != nil {
		t.add(&span{Name: name, Start: int64(start), End: int64(now())})
	}
	return err
}

// current is the tracer the process-wide hooks (the decider backend and
// the graph store wrapper) record into; nil outside traced rounds.
var current atomic.Pointer[tracer]

// tracedBackend is the decider registry name of tracedDecider.
const tracedBackend = "perfbench-traced"

// tracedDecider wraps the default level-decider backend with spans:
// one per computed level decision, one child per shard of a sharded
// one. The request ID comes from the engine context.
type tracedDecider struct{ inner decider.Decider }

// registerTracedDecider adds tracedDecider to the decider registry,
// once per process.
var registerTracedDecider = sync.OnceValue(func() error {
	inner, err := decider.Get("")
	if err != nil {
		return err
	}
	decider.Register(tracedDecider{inner})
	return nil
})

func (tracedDecider) Name() string { return tracedBackend }

func (d tracedDecider) begin(ctx context.Context, prop string, n int) *span {
	return &span{Name: "decider." + prop, Req: obs.RequestIDFrom(ctx), Start: int64(now()),
		Attrs: map[string]string{"n": strconv.Itoa(n)}}
}

func (d tracedDecider) end(s *span, shards int) {
	s.End = int64(now())
	if shards > 1 {
		s.Attrs["shards"] = strconv.Itoa(shards)
	}
	if t := current.Load(); t != nil {
		t.add(s)
	}
}

// shardSpans records a sharded decision's per-worker reports as
// children of parent; the parent span is added first so its ID exists.
type shardSpans struct {
	mu   sync.Mutex
	reps []*span
}

func (ss *shardSpans) note(req string, scanned, chunks int64, elapsed time.Duration) {
	end := now()
	ss.mu.Lock()
	ss.reps = append(ss.reps, &span{Name: "shard.worker", Req: req, Start: int64(end - elapsed),
		End: int64(end), extra: [2]int64{scanned, chunks}})
	ss.mu.Unlock()
}

func (ss *shardSpans) flush(parent *span) {
	t := current.Load()
	if t == nil {
		return
	}
	for _, s := range ss.reps {
		s.Parent = parent.ID
		t.add(s)
	}
}

func (d tracedDecider) IsNDiscerning(ctx context.Context, t *spec.FiniteType, n int) (bool, *discern.Witness, error) {
	s := d.begin(ctx, "discerning", n)
	ok, w, err := d.inner.IsNDiscerning(ctx, t, n)
	d.end(s, 1)
	return ok, w, err
}

func (d tracedDecider) IsNRecording(ctx context.Context, t *spec.FiniteType, n int) (bool, *record.Witness, error) {
	s := d.begin(ctx, "recording", n)
	ok, w, err := d.inner.IsNRecording(ctx, t, n)
	d.end(s, 1)
	return ok, w, err
}

func (d tracedDecider) ShardedIsNDiscerning(ctx context.Context, t *spec.FiniteType, n, shards int, onShard func(discern.ShardReport)) (bool, *discern.Witness, error) {
	s := d.begin(ctx, "discerning", n)
	var ss shardSpans
	ok, w, err := d.inner.ShardedIsNDiscerning(ctx, t, n, shards, func(rep discern.ShardReport) {
		ss.note(s.Req, rep.Scanned, rep.Chunks, rep.Elapsed)
		if onShard != nil {
			onShard(rep)
		}
	})
	d.end(s, shards)
	ss.flush(s)
	return ok, w, err
}

func (d tracedDecider) ShardedIsNRecording(ctx context.Context, t *spec.FiniteType, n, shards int, onShard func(record.ShardReport)) (bool, *record.Witness, error) {
	s := d.begin(ctx, "recording", n)
	var ss shardSpans
	ok, w, err := d.inner.ShardedIsNRecording(ctx, t, n, shards, func(rep record.ShardReport) {
		ss.note(s.Req, rep.Scanned, rep.Chunks, rep.Elapsed)
		if onShard != nil {
			onShard(rep)
		}
	})
	d.end(s, shards)
	ss.flush(s)
	return ok, w, err
}

// tracedGraphStore wraps the on-disk graph store with a span per Load
// and Spill. The store has no request context, so the spans stand alone.
type tracedGraphStore struct{ inner *graphstore.Store }

func (g tracedGraphStore) Load(fp string, inputs []int) (*model.GraphSnapshot, error) {
	start := now()
	snap, err := g.inner.Load(fp, inputs)
	if t := current.Load(); t != nil {
		s := &span{Name: "graphstore.Load", Start: int64(start), End: int64(now())}
		if snap != nil {
			s.nodes = int64(len(snap.Nodes))
		}
		t.add(s)
	}
	return snap, err
}

func (g tracedGraphStore) Spill(fp string, inputs []int, snap *model.GraphSnapshot) (int, error) {
	start := now()
	n, err := g.inner.Spill(fp, inputs, snap)
	if t := current.Load(); t != nil {
		t.add(&span{Name: "graphstore.Spill", Start: int64(start), End: int64(now()), nodes: int64(n)})
	}
	return n, err
}

// accessHook is a slog handler that, on each access-log record, turns
// the request's middleware trace into spans: the serve span from the
// logged elapsed time, and engine spans from the engine progress events
// the middleware collected (obs.Trace). Every record is then passed on.
type accessHook struct {
	inner slog.Handler
	t     *tracer
}

func (h accessHook) Enabled(ctx context.Context, l slog.Level) bool { return h.inner.Enabled(ctx, l) }

func (h accessHook) WithAttrs(as []slog.Attr) slog.Handler {
	return accessHook{h.inner.WithAttrs(as), h.t}
}

func (h accessHook) WithGroup(name string) slog.Handler {
	return accessHook{h.inner.WithGroup(name), h.t}
}

func (h accessHook) Handle(ctx context.Context, r slog.Record) error {
	if r.Message == "http.access" {
		h.record(ctx, r)
	}
	return h.inner.Handle(ctx, r)
}

func (h accessHook) record(ctx context.Context, r slog.Record) {
	end := now()
	var elapsed time.Duration
	var endpoint string
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "elapsed":
			elapsed = a.Value.Duration()
		case "endpoint":
			endpoint = a.Value.String()
		}
		return true
	})
	req := obs.RequestIDFrom(ctx)
	start := end - elapsed
	h.t.add(&span{Name: "serve." + endpoint, Req: req, Start: int64(start), End: int64(end)})
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		return
	}
	evs, _ := tr.Spans()
	begin := time.Duration(-1)
	for _, ev := range evs {
		at := start + ev.At
		switch ev.Name {
		case "analyze.start", "checkbatch.start":
			if begin < 0 {
				begin = ev.At
			}
		case "analyze.done":
			h.t.add(&span{Name: "engine.Analyze", Req: req, Start: int64(at - ev.Elapsed), End: int64(at)})
		case "checkbatch.done":
			h.t.add(&span{Name: "engine.CheckBatch", Req: req, Start: int64(at - ev.Elapsed), End: int64(at)})
		case "check.done":
			// Detail is "<protocol>, <n> nodes".
			var nodes int64
			if i := strings.LastIndex(ev.Detail, ", "); i >= 0 {
				nodes, _ = strconv.ParseInt(strings.TrimSuffix(ev.Detail[i+2:], " nodes"), 10, 64)
			}
			h.t.add(&span{Name: "graph.check", Req: req, Start: int64(at - ev.Elapsed), End: int64(at), nodes: nodes})
		}
	}
	if begin >= 0 {
		h.t.add(&span{Name: "engine.Resolve", Req: req, Start: int64(start), End: int64(start + begin)})
	}
}

// countingTransport adds the response body bytes it reads to n.
type countingTransport struct {
	inner http.RoundTripper
	n     *atomic.Int64
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.inner.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{resp.Body, c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// link assigns each request span its parent: client → serve → engine
// → decider, graph check and resolve spans under the engine or serve
// span, and chain spans under the job-events client span.
func link(spans []*span) {
	byReq := make(map[string][]*span)
	for _, s := range spans {
		if s.Req != "" && s.Parent == 0 {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	for _, group := range byReq {
		find := func(pred func(string) bool) *span {
			for _, s := range group {
				if pred(s.Name) {
					return s
				}
			}
			return nil
		}
		client := find(func(n string) bool { return strings.HasPrefix(n, "client.") })
		serve := find(func(n string) bool { return strings.HasPrefix(n, "serve.") })
		engine := find(func(n string) bool { return n == "engine.Analyze" || n == "engine.CheckBatch" })
		for _, s := range group {
			var parent *span
			switch {
			case s == client:
			case strings.HasPrefix(s.Name, "serve.") || strings.HasPrefix(s.Name, "jobs.") || s.Name == "engine.Theorem13":
				parent = client
			case s.Name == "engine.Resolve" || s == engine:
				parent = serve
			default:
				parent = engine
			}
			if parent != nil {
				s.Parent = parent.ID
			}
		}
	}
}

// selfTimes returns each span's duration minus the time its children
// cover, keyed by span ID.
func selfTimes(spans []*span) map[int64]time.Duration {
	kids := make(map[int64][]*span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) that the union of spans covers.
func covered(lo, hi int64, spans []*span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	total += curB - curA
	return time.Duration(total)
}

// writeSpans writes spans as JSON lines after a header line of labels.
func writeSpans(path string, labels map[string]string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"labels": labels}); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
